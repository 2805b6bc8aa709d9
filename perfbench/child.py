"""One run of one workload in a fresh Python process.

Usage: python3 child.py INPUTDIR WORKDIR TRACE

INPUTDIR holds ``spec.json`` (and ``arrays.npz`` for matrix inputs); the
record goes to ``WORKDIR/result.json`` and the program's outputs next to
it. Nothing is imported before the timed ``import ptdeco``, so the import
pays for numpy and scipy the way a user's process does. Every clock reading
is ``time.monotonic()``, which the parent reads too.
"""

import hashlib
import json
import os
import resource
import sys
import time


def _fmt(x: float) -> str:
    return repr(float(x))


def _call_main(cli, argv, tracer):
    if tracer is None:
        return cli.main(argv)
    with tracer.span("cli.main"):
        return cli.main(argv)


def run_figure1_sweep(spec, arrays, workdir, tracer):
    from ptdeco import cli

    out = os.path.join(workdir, "figure1.csv")
    argv = [
        "figure1",
        "--alpha", ",".join(_fmt(a) for a in spec["alphas"]),
        "--j0", _fmt(spec["j0"]),
        "--mu", _fmt(spec["mu"]),
        "--omega-c", _fmt(spec["omega_c"]),
        "--beta", _fmt(spec["beta"]),
        "--t-end", _fmt(spec["t_end"]),
        "--n-points", str(spec["n_points"]),
        "--out", out,
    ]
    t_work = time.monotonic()
    start = time.perf_counter()
    rc = _call_main(cli, argv, tracer)
    latency = time.perf_counter() - start
    t_last = time.monotonic()
    cells = spec["n_points"] * len(spec["alphas"])
    return {
        "t_work": t_work,
        "t_last": t_last,
        "attempted": cells,
        "raised": {} if rc == 0 else {f"exit{rc}": cells},
        "failed_items": [] if rc == 0 else list(range(cells)),
        "latencies_s": [latency],
        "calls": [{"out": out, "rc": rc}],
    }


def run_oracle_dense(spec, arrays, workdir, tracer):
    from ptdeco import cli

    calls = []
    latencies = []
    failed = []
    raised = {}
    per_call = 2 * spec["n_points"]
    t_work = time.monotonic()
    for k, shape in enumerate(spec["shapes"]):
        if tracer is not None:
            tracer.item = k
        out = os.path.join(workdir, f"oracle_{shape['modes']}x{shape['fock_dim']}.csv")
        argv = [
            "oracle-compare",
            "--modes", str(shape["modes"]),
            "--fock-dim", str(shape["fock_dim"]),
            "--alpha", ",".join(_fmt(a) for a in shape["alphas"]),
            "--j0", _fmt(spec["j0"]),
            "--mu", _fmt(spec["mu"]),
            "--omega-c", _fmt(spec["omega_c"]),
            "--beta", _fmt(spec["beta"]),
            "--t-end", _fmt(spec["t_end"]),
            "--n-points", str(spec["n_points"]),
            "--omega-max", _fmt(spec["omega_max"]),
            "--compare-tol", _fmt(spec["compare_tol"]),
            "--out", out,
        ]
        start = time.perf_counter()
        rc = _call_main(cli, argv, tracer)
        latencies.append(time.perf_counter() - start)
        calls.append({"out": out, "rc": rc})
        if rc != 0:
            raised[f"exit{rc}"] = raised.get(f"exit{rc}", 0) + per_call
            failed.extend(range(k * per_call, (k + 1) * per_call))
    t_last = time.monotonic()
    return {
        "t_work": t_work,
        "t_last": t_last,
        "attempted": per_call * len(spec["shapes"]),
        "raised": raised,
        "failed_items": failed,
        "latencies_s": latencies,
        "calls": calls,
    }


def run_gamma_domain(spec, arrays, workdir, tracer):
    import numpy as np

    from ptdeco import dephasing, pt_core

    n = spec["items"]
    mu, beta, t = arrays["mu"].tolist(), arrays["beta"].tolist(), arrays["t"].tolist()
    alpha, to_pt = arrays["alpha"].tolist(), arrays["to_pt"].tolist()
    rho0s = [
        np.array([[0.5, 1j * c], [-1j * c, 0.5]], dtype=complex) for c in arrays["im12"].tolist()
    ]
    states = np.full((n, 2, 2), np.nan, dtype=complex)
    pt_states = np.full((n, 2, 2), np.nan, dtype=complex)
    latencies = []
    failed = []
    raised = {}
    t_work = time.monotonic()
    for i in range(n):
        if tracer is not None:
            tracer.item = i
        start = time.perf_counter()
        try:
            spectral = dephasing.SpectralDensity(j0=spec["j0"], mu=mu[i], omega_c=spec["omega_c"])
            model = dephasing.DephasingModel(alpha=alpha[i], beta=beta[i], spectral=spectral)
            rho = dephasing.evolve_exact(model, rho0s[i], t[i])
            rho_pt = None
            if to_pt[i]:
                rho_pt = pt_core.map_state_back(rho, dephasing.qubit_transform(alpha[i]))
        except Exception as exc:  # every raise is a failed item, recorded by type
            latencies.append(time.perf_counter() - start)
            failed.append(i)
            key = type(exc).__name__
            raised[key] = raised.get(key, 0) + 1
            continue
        latencies.append(time.perf_counter() - start)
        states[i] = rho
        if rho_pt is not None:
            pt_states[i] = rho_pt
    t_last = time.monotonic()
    np.savez(os.path.join(workdir, "outputs.npz"), states=states, pt_states=pt_states)
    return {
        "t_work": t_work,
        "t_last": t_last,
        "attempted": n,
        "raised": raised,
        "failed_items": failed,
        "latencies_s": latencies,
        "calls": [],
    }


def run_hermitize_kraus(spec, arrays, workdir, tracer):
    import numpy as np

    from ptdeco import channel, pt_core

    dims = spec["dims"]
    inputs = {k: arrays[k] for k in arrays.files}
    outputs = {}
    latencies = []
    failed = []
    raised = {}
    item = 0

    def fail(exc):
        failed.append(item)
        key = type(exc).__name__
        raised[key] = raised.get(key, 0) + 1

    t_work = time.monotonic()
    for n in dims:
        if tracer is not None:
            tracer.item = item
        start = time.perf_counter()
        try:
            H = inputs[f"H{n}"]
            ham = pt_core.PtHamiltonian(H=H, P=np.fliplr(np.eye(n)))
            symmetric = pt_core.check_pt_symmetry(ham)
            report = pt_core.spectrum(ham)
            basis = pt_core.biorthonormal_basis(ham)
            C = pt_core.charge_conjugation(basis, ham.P)
            cmap = pt_core.canonical_transform(ham)
            h = pt_core.hermitian_representation(ham, cmap)
        except Exception as exc:  # every raise is a failed item, recorded by type
            fail(exc)
        else:
            outputs[f"h{n}"] = h
            outputs[f"C{n}"] = C
            outputs[f"eig{n}"] = report.eigenvalues
            outputs[f"flags{n}"] = np.array(
                [symmetric, report.classification is pt_core.PhaseClass.REAL]
            )
        latencies.append(time.perf_counter() - start)
        item += 1
    for i, ch_spec in enumerate(spec["channels"]):
        if tracer is not None:
            tracer.item = item
        start = time.perf_counter()
        try:
            ds = ch_spec["dim_s"]
            ham_s = pt_core.PtHamiltonian(H=inputs[f"c{i}_HS"], P=np.fliplr(np.eye(ds)))
            cmap = pt_core.canonical_transform(ham_s)
            h_s = pt_core.hermitian_representation(ham_s, cmap)
            model = channel.build_composite(
                h_s, inputs[f"c{i}_HB"], inputs[f"c{i}_VS"], inputs[f"c{i}_VB"]
            )
            kraus = channel.kraus_extract(model, inputs[f"c{i}_OmegaB"], ch_spec["t"])
            pt_family = channel.pt_kraus(kraus, cmap)
            rho = inputs[f"c{i}_rho"]
            out = channel.apply_channel(kraus, rho)
            out_pt = channel.apply_channel(pt_family, pt_core.map_state_back(rho, cmap))
            cp = channel.is_completely_positive(kraus)
        except Exception as exc:  # every raise is a failed item, recorded by type
            fail(exc)
        else:
            outputs[f"c{i}_K"] = np.array(kraus.ops)
            outputs[f"c{i}_L"] = np.array([L for L, _ in pt_family.ops])
            outputs[f"c{i}_R"] = np.array([R for _, R in pt_family.ops])
            outputs[f"c{i}_T"] = cmap.T
            outputs[f"c{i}_Tinv"] = cmap.T_inv
            outputs[f"c{i}_out"] = out
            outputs[f"c{i}_outpt"] = out_pt
            outputs[f"c{i}_cp"] = np.array(cp)
        latencies.append(time.perf_counter() - start)
        item += 1
    t_last = time.monotonic()
    np.savez(os.path.join(workdir, "outputs.npz"), **outputs)
    return {
        "t_work": t_work,
        "t_last": t_last,
        "attempted": item,
        "matrix_items": len(dims),
        "raised": raised,
        "failed_items": failed,
        "latencies_s": latencies,
        "calls": [],
    }


RUNNERS = {
    "figure1_sweep": run_figure1_sweep,
    "gamma_domain": run_gamma_domain,
    "oracle_dense": run_oracle_dense,
    "hermitize_kraus": run_hermitize_kraus,
}


def _blas_threads():
    """Thread count reported by each loaded OpenBLAS, keyed by library file."""
    import ctypes

    found = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                found[os.path.basename(path)] = fn()
                break
    return found


def _environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def main():
    inputdir, workdir, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    with open(os.path.join(inputdir, "spec.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    t_import = time.monotonic()
    import ptdeco  # noqa: F401
    t_imported = time.monotonic()

    tracer = None
    warnings_seen = []
    if trace:
        import warnings

        from ptdeco import cli  # noqa: F401  (bound before the wrappers go in)

        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        warn = warnings.warn

        def counting_warn(message, category=None, stacklevel=1, **kwargs):
            # counts every emission; display still follows the warning filters
            warnings_seen.append(getattr(category, "__name__", "UserWarning"))
            return warn(message, category, stacklevel + 1, **kwargs)

        warnings.warn = counting_warn

    arrays = None
    npz = os.path.join(inputdir, "arrays.npz")
    if os.path.exists(npz):
        import numpy as np

        arrays = np.load(npz)

    record = RUNNERS[spec["workload"]](spec, arrays, workdir, tracer)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    outputs = [c["out"] for c in record["calls"] if os.path.exists(c["out"])]
    npz_out = os.path.join(workdir, "outputs.npz")
    if os.path.exists(npz_out):
        outputs.append(npz_out)
    record.update(
        t_import=t_import,
        t_imported=t_imported,
        peak_rss_kb=peak_rss_kb,
        csv_bytes=sum(os.path.getsize(c["out"]) for c in record["calls"] if os.path.exists(c["out"])),
        output_digest=_digest(outputs),
        environment=_environment(),
        traced=trace,
    )
    if tracer is not None:
        tracer.dump(os.path.join(workdir, "spans.json"))
        record["warnings"] = warnings_seen
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
