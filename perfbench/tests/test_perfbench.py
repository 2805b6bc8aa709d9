"""Tests of the benchmark itself: generators, references, checkers, tracing.

Run from the repository root:
    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

from ptdeco import cli, dephasing, pt_core  # noqa: E402


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pt_generator_is_unbroken_at_every_n(seed):
    rng = np.random.default_rng(seed)
    for n in inputs.HERMITIZE_DIMS:
        # the top of the kappa range is the closest to an exceptional point
        for kappa in (10.0 ** inputs.KAPPA_LOG10[0], 10.0 ** inputs.KAPPA_LOG10[1]):
            H, A = inputs.pt_matrix(rng, n, kappa)
            P = inputs.exchange_matrix(n)
            scale = np.linalg.norm(H, 2)
            assert np.linalg.norm(P @ H @ P - H.conj().T, 2) <= 1e-12 * scale
            assert np.linalg.norm(H.conj() - H.conj().T, 2) <= 1e-12 * scale
            ham = pt_core.PtHamiltonian(H=H, P=P)
            report = pt_core.spectrum(ham)
            assert report.classification is pt_core.PhaseClass.REAL, n
            assert np.allclose(np.sort(report.eigenvalues.real), np.linalg.eigvalsh(A), atol=1e-9 * scale)


@pytest.mark.parametrize(
    "mu, beta, t",
    [(-0.5, 0.5, 1.0), (-0.5, 0.5, 20.0), (0.5, 5.0, 3.0), (2.5, 0.05, 100.0), (-0.9, 2.0, 0.01)],
)
def test_zeta_reference_matches_gamma_integral(mu, beta, t):
    pytest.importorskip("mpmath")
    model = dephasing.DephasingModel(0.0, beta, dephasing.SpectralDensity(1.0, mu, 1.0))
    quad = dephasing.gamma_integral(model, t).value
    assert checks.gamma_reference(1.0, mu, 1.0, beta, t) == pytest.approx(quad, rel=1e-9)


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_inputs_depend_on_the_seed_only(workload):
    spec_a, arrays_a = inputs.make(workload, 5)
    spec_b, arrays_b = inputs.make(workload, 5)
    spec_c, arrays_c = inputs.make(workload, 6)
    assert json.dumps(spec_a, sort_keys=True) == json.dumps(spec_b, sort_keys=True)
    assert arrays_a.keys() == arrays_b.keys()
    for key in arrays_a:
        assert np.array_equal(arrays_a[key], arrays_b[key])
    changed = json.dumps(spec_a, sort_keys=True) != json.dumps(spec_c, sort_keys=True) or any(
        not np.array_equal(arrays_a[k], arrays_c[k]) for k in arrays_a
    )
    assert changed


def _figure1_csv(tmp_path, n_points=60):
    spec, _ = inputs.make("figure1_sweep", 3)
    spec["n_points"] = n_points
    out = tmp_path / "figure1.csv"
    argv = ["figure1", "--alpha", ",".join(repr(a) for a in spec["alphas"]),
            "--t-end", repr(spec["t_end"]), "--n-points", str(n_points), "--out", str(out)]
    assert cli.main(argv) == 0
    return spec, out


def test_figure1_checker_accepts_the_program_output(tmp_path):
    pytest.importorskip("mpmath")
    spec, out = _figure1_csv(tmp_path)
    verdict = checks.check_figure1(spec, out, np.random.default_rng(0))
    assert verdict.problems == []
    assert verdict.info["reference_points"] > 0


def test_figure1_checker_rejects_swapped_alpha_columns(tmp_path):
    pytest.importorskip("mpmath")
    spec, out = _figure1_csv(tmp_path)
    lines = out.read_text().splitlines()
    order = sorted(range(len(spec["alphas"])), key=lambda j: spec["alphas"][j])
    lo, hi = order[0] + 1, order[-2] + 1  # smallest |alpha| and largest below 1
    swapped = []
    for line in lines:
        cells = line.split(",")
        if not line.startswith("#") and not line.startswith("t,"):
            cells[lo], cells[hi] = cells[hi], cells[lo]
        swapped.append(",".join(cells))
    out.write_text("\n".join(swapped) + "\n")
    verdict = checks.check_figure1(spec, out, np.random.default_rng(0))
    assert verdict.problems
    assert verdict.failed_items


def test_oracle_checker_rejects_a_changed_analytic_column(tmp_path):
    spec, _ = inputs.make("oracle_dense", 4)
    spec["shapes"] = [{"modes": 2, "fock_dim": 4, "alphas": [0.0, 0.5]}]
    spec["n_points"] = 5
    out = tmp_path / "oracle.csv"
    argv = ["oracle-compare", "--modes", "2", "--fock-dim", "4", "--alpha", "0.0,0.5",
            "--j0", "0.2", "--n-points", "5", "--out", str(out)]
    rc = cli.main(argv)
    calls = [{"out": str(out), "rc": rc}]
    assert checks.check_oracle(spec, calls).problems == []
    lines = out.read_text().splitlines()
    cells = lines[-1].split(",")
    cells[3] = repr(float(cells[3]) * (1.0 + 1e-6))
    lines[-1] = ",".join(cells)
    out.write_text("\n".join(lines) + "\n")
    verdict = checks.check_oracle(spec, calls)
    assert any("D_analytic" in p for p in verdict.problems)


def test_self_time_subtracts_the_union_of_child_spans():
    recorded = [
        ["outer", 0.0, 10.0, None, 0, True, None, 1],
        ["a", 1.0, 4.0, 0, 0, True, None, 1],
        ["b", 3.0, 5.0, 0, 0, True, None, 2],  # overlaps a, in a worker thread
        ["c", 1.5, 2.0, 1, 0, True, None, 1],
    ]
    assert spans.self_times(recorded) == pytest.approx([6.0, 2.5, 2.0, 0.5])
    assert spans.self_s_per_thread(recorded) == pytest.approx({1: 9.0, 2: 2.0})


def test_install_rebinds_every_module_binding():
    code = """
import numpy as np
import ptdeco, spans
from ptdeco import channel, dephasing, oracle, pt_core
tracer = spans.Tracer()
counts = spans.install(tracer)
assert counts["pt_core.require_density_matrix"] == 4, counts
assert all(n >= 1 for n in counts.values()), counts
model = dephasing.DephasingModel(0.5, 0.5, dephasing.SpectralDensity(1.0, -0.5, 1.0))
dephasing.evolve_exact(model, np.array([[0.5, 0.5j], [-0.5j, 0.5]]), 1.0)
names = [s[0] for s in tracer.spans]
assert names == ["dephasing.evolve_exact", "dephasing.gamma_integral",
                 "pt_core.require_density_matrix"], names
assert tracer.spans[1][3] == 0 and tracer.spans[2][3] == 0
assert tracer.spans[1][6] > 0  # GammaResult.evaluations
"""
    env = run._child_env()
    env["PYTHONPATH"] = str(BENCH) + ":" + env["PYTHONPATH"]
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_benchmark_json_names_the_reported_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [m["unit"] for m in bench["end_to_end"]] == [u for _, u in run.END_TO_END]
    layers = [(n, u) for n, u, _, _ in run.PER_LAYER] + [run.TRACE_OVERHEAD]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == layers
    assert [w["name"] for w in bench["workloads"]] == list(inputs.WORKLOADS)
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"][0]
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figure1_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

