"""ptdeco benchmark: one workload, one seed, a fixed measuring time.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; ptdeco is taken from its ``src/``.
The inputs come from the seed alone (``inputs.py``). Each repetition is a
fresh Python process (``child.py``), because every CLI user pays the
``import ptdeco`` and the first threaded-BLAS warm-up again. Processes run
one after another until the next one would end after S seconds, and each
metric is aggregated over them (see ``SPEED``). Their outputs are then
checked against independent references (``checks.py``).

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` traced and untraced processes
alternate and it carries the per-layer metrics from the traced ones
(``spans.py``). Thread settings are read, never set. The exit code is not 0,
and no result is printed, when ptdeco or a checker's reference is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import inputs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench_out"

CHILD_TIMEOUT_S = 120.0
#: Fewest processes per run: untraced, and traced (half of them traced).
MIN_PROCESSES = {0: 3, 1: 4}
#: After this long no further process starts, even below the minimum.
START_CUTOFF_S = 100.0

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PTDECO_THREADS")
SCOPE = (
    "only this benchmark's own processes were measured: no system-wide tracing, "
    "no cache dropping, no CPU pinning"
)

#: (name, unit); every workload reports every one. Failures appear as
#: ok_frac = 1 - fail_frac, because a metric must never read 0.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("item_ms_p50", "ms"),
    ("item_ms_p99", "ms"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
)

ORACLE_SHAPE_NAMES = [f"{m}x{f}" for m, f in inputs.ORACLE_SHAPES]


def _stat(stats, name, key, default=0.0):
    return stats[name][key] if name in stats else default


def _durations_p50_us(stats, name):
    return float(np.median(stats[name]["durations"])) * 1e6 if name in stats else 0.0


def _mean_extra(stats, name):
    extras = stats.get(name, {}).get("extras", [])
    return float(np.mean(extras)) if extras else 0.0


def _fail_frac(stats, name):
    st = stats.get(name)
    return st["fails"] / st["calls"] if st and st["calls"] else 0.0


def _first_call_s(stats, name):
    return stats[name]["durations"][0] if name in stats else 0.0


def _dense_flops(stats, record):
    """Computed, not counted: per brute-force call of composite dim d and T
    times, complex GEMMs at 8 d^3 flops (2 in the commutator check, 2 for
    the change of basis, 2 per time), eigh at 36 d^3 and three spectral
    norms at 16 d^3 each."""
    total = 0.0
    for d, n_times in stats.get("oracle.brute_force_dynamics", {}).get("extras", []):
        total += float(d) ** 3 * (8.0 * (4 + 2 * n_times) + 36.0 + 3 * 16.0)
    return total


def _eig_calls_per_matrix(stats, record):
    matrices = record.get("matrix_items", 0)
    if not matrices or "linalg.eig_general" not in stats:
        return 0.0
    on_matrices = [i for i in stats["linalg.eig_general"]["items"] if i is not None and i < matrices]
    return len(on_matrices) / matrices


def _layer(name, key):
    return {
        "calls": lambda st, rec, info: _stat(st, name, "calls", 0),
        "s": lambda st, rec, info: _stat(st, name, "s"),
        "self_s": lambda st, rec, info: _stat(st, name, "self_s"),
        "us_p50": lambda st, rec, info: _durations_p50_us(st, name),
        "evals_per_call": lambda st, rec, info: _mean_extra(st, name),
        "fail_frac": lambda st, rec, info: _fail_frac(st, name),
        "first_call_s": lambda st, rec, info: _first_call_s(st, name),
    }[key]


def _span_metric(metric, unit, better="lower"):
    name, key = metric.rsplit(".", 1)
    return (metric, unit, better, _layer(name, key))


#: (name, unit, better, value(layer_stats, child_record, check_info)).
#: Layers a workload does not run read 0.
PER_LAYER = (
    _span_metric("dephasing.gamma_integral.calls", "count"),
    _span_metric("dephasing.gamma_integral.self_s", "s"),
    _span_metric("dephasing.gamma_integral.us_p50", "us"),
    _span_metric("dephasing.gamma_integral.evals_per_call", "count"),
    _span_metric("dephasing.gamma_integral.fail_frac", "frac"),
    _span_metric("dephasing.sweep_alpha.self_s", "s"),
    _span_metric("dephasing.evolve_exact.self_s", "s"),
    _span_metric("dephasing.gamma_discrete.s", "s"),
    _span_metric("cli.main.self_s", "s"),
    ("cli.csv_bytes", "bytes", "lower", lambda st, rec, info: rec["csv_bytes"]),
    _span_metric("oracle.bath_operators.s", "s"),
    _span_metric("oracle.thermal_state.s", "s"),
    _span_metric("oracle.brute_force_dynamics.self_s", "s"),
    _span_metric("oracle.run_comparison.self_s", "s"),
    ("oracle.dense_flops_computed", "flop", "lower", lambda st, rec, info: _dense_flops(st, rec)),
    (
        "oracle.truncation_warnings",
        "count",
        "lower",
        lambda st, rec, info: rec.get("warnings", []).count("TruncationWarning"),
    ),
    *(
        (
            f"oracle.fitted_c.{shape}",
            "1",
            "higher",
            lambda st, rec, info, shape=shape: info.get("fitted_c", {}).get(shape, 0.0),
        )
        for shape in ORACLE_SHAPE_NAMES
    ),
    _span_metric("channel.build_composite.s", "s"),
    _span_metric("channel.build_composite.first_call_s", "s"),
    _span_metric("channel.kraus_extract.s", "s"),
    (
        "channel.kraus_ops_per_call",
        "count",
        "lower",
        lambda st, rec, info: _mean_extra(st, "channel.kraus_extract"),
    ),
    _span_metric("channel.pt_kraus.s", "s"),
    _span_metric("channel.apply_channel.s", "s"),
    _span_metric("channel.is_completely_positive.s", "s"),
    _span_metric("linalg.eig_general.s", "s"),
    (
        "linalg.eig_general.calls_per_item",
        "count",
        "lower",
        lambda st, rec, info: _eig_calls_per_matrix(st, rec),
    ),
    _span_metric("linalg.mat_sqrt_psd.s", "s"),
    _span_metric("linalg.partial_trace_env.s", "s"),
    _span_metric("linalg.kron.s", "s"),
    _span_metric("pt_core.spectrum.self_s", "s"),
    _span_metric("pt_core.biorthonormal_basis.self_s", "s"),
    _span_metric("pt_core.canonical_transform.self_s", "s"),
    _span_metric("pt_core.hermitian_representation.s", "s"),
    _span_metric("pt_core.check_pt_symmetry.s", "s"),
    _span_metric("pt_core.require_density_matrix.calls", "count"),
    _span_metric("pt_core.require_density_matrix.s", "s"),
)
TRACE_OVERHEAD = ("trace.overhead_frac", "frac")


def _environment(first_record):
    env = {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        **{var: os.environ.get(var, "<unset>") for var in THREAD_VARIABLES},
    }
    if first_record is not None:
        env.update(first_record["environment"])
    env["scope"] = SCOPE
    return env


def _child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(input_dir: Path, work_dir: Path, traced: bool):
    """One fresh process; returns its record, or None when it failed."""
    work_dir.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(input_dir), str(work_dir), str(int(traced))]
    with open(work_dir / "child.log", "wb") as log:
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT, env=_child_env(),
                timeout=CHILD_TIMEOUT_S, check=False,
            )
        except subprocess.TimeoutExpired:
            return None
    result = work_dir / "result.json"
    if proc.returncode != 0 or not result.exists():
        return None
    with open(result, encoding="utf-8") as fh:
        record = json.load(fh)
    record["t_spawn"] = t_spawn
    record["work_dir"] = str(work_dir)
    return record


def check_record(workload, spec, arrays, record, seed) -> checks.Verdict:
    rng = np.random.default_rng([abs(seed), 7919])
    failed = set(record["failed_items"])
    if workload == "figure1_sweep":
        if record["calls"][0]["rc"] != 0:
            return checks.Verdict()
        return checks.check_figure1(spec, record["calls"][0]["out"], rng)
    if workload == "oracle_dense":
        return checks.check_oracle(spec, record["calls"])
    with np.load(Path(record["work_dir"]) / "outputs.npz") as outputs:
        if workload == "gamma_domain":
            return checks.check_gamma_domain(spec, arrays, outputs, failed, rng)
        return checks.check_hermitize_kraus(spec, arrays, outputs, failed)


#: Speed metrics report the second-slowest process of the run: the slowest
#: once the single worst process is dropped. On a shared host the CPU speed
#: can drift by up to 2x in phases of tens of seconds, with the slow phase a
#: steady ceiling; a median over a 30 s run then mostly tells how much of the
#: run fell into fast phases, while single processes also spike. Set-up time
#: and memory stay medians.
SPEED = {"wall_s": False, "items_per_s": True, "item_ms_p50": False, "item_ms_p99": False}


def second_slowest(values, higher_is_faster=False) -> float:
    ordered = sorted(values, reverse=higher_is_faster)
    return ordered[-2] if len(ordered) > 1 else ordered[-1]


def process_values(record, failed_items):
    """End-to-end values of one process, before aggregation over the run."""
    ok = record["attempted"] - len(failed_items)
    latencies = np.asarray(record["latencies_s"]) * 1e3
    return {
        "setup_s": record["t_imported"] - record["t_import"],
        "wall_s": record["t_last"] - record["t_spawn"],
        "items_per_s": ok / (record["t_last"] - record["t_work"]),
        "item_ms_p50": float(np.percentile(latencies, 50)),
        "item_ms_p99": float(np.percentile(latencies, 99)),
        "ok": ok,
        "attempted": record["attempted"],
        "peak_rss_mb": record["peak_rss_kb"] / 1024.0,
        "units": len(latencies),
    }


def end_to_end(records, failed_by_record):
    """Per-run values over the untraced processes: the second-slowest
    process for the speed metrics, the median for set-up time and memory,
    and the pooled share of items that did not fail. Also returns the
    medians of all."""
    per_process = [
        process_values(r, failed_by_record[id(r)]) for r in records if not r["traced"]
    ]
    medians = {
        name: statistics.median(p[name] for p in per_process)
        for name, _ in END_TO_END
        if name != "ok_frac"
    }
    values = dict(medians)
    for name, higher_is_faster in SPEED.items():
        values[name] = second_slowest((p[name] for p in per_process), higher_is_faster)
    attempted = sum(p["attempted"] for p in per_process)
    ok_items = sum(p["ok"] for p in per_process)
    values["ok_frac"] = medians["ok_frac"] = ok_items / attempted
    samples = {name: len(per_process) for name, _ in END_TO_END}
    samples["ok_frac"] = attempted
    samples["units_per_process"] = per_process[0]["units"]
    return values, medians, samples, attempted - ok_items, attempted


def per_layer(records, info):
    """Medians over the traced processes, plus the tracing overhead: traced
    over untraced wall_s (each the second-slowest process), minus 1."""
    traced = [r for r in records if r["traced"]]
    per_child = []
    problems = []
    for r in traced:
        with open(Path(r["work_dir"]) / "spans.json", encoding="utf-8") as fh:
            recorded = json.load(fh)
        stats = spans.layer_stats(recorded)
        per_child.append({name: fn(stats, r, info) for name, _, _, fn in PER_LAYER})
        self_sum = max(spans.self_s_per_thread(recorded).values(), default=0.0)
        post_import = r["t_last"] - r["t_imported"]
        if self_sum > post_import:
            problems.append(f"self times sum to {self_sum:.4f} s > post-import wall {post_import:.4f} s")
    values = {name: float(statistics.median(c[name] for c in per_child)) for name, _, _, _ in PER_LAYER}
    untraced_wall = second_slowest(r["t_last"] - r["t_spawn"] for r in records if not r["traced"])
    traced_wall = second_slowest(r["t_last"] - r["t_spawn"] for r in traced)
    values[TRACE_OVERHEAD[0]] = traced_wall / untraced_wall - 1.0
    return values, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ptdeco" / "__init__.py").is_file():
        print(f"error: no ptdeco sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        import mpmath  # noqa: F401  (the gamma reference of the checks)
    except ImportError:
        print("error: mpmath is needed for the correctness checks", file=sys.stderr)
        return 2

    run_dir = OUT_ROOT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    input_dir = run_dir / "inputs"
    input_dir.mkdir(parents=True)
    try:
        return measure(args, run_dir, input_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, run_dir: Path, input_dir: Path) -> int:
    spec, arrays = inputs.make(args.workload, args.seed)
    with open(input_dir / "spec.json", "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    if arrays:
        np.savez(input_dir / "arrays.npz", **arrays)

    start = time.monotonic()
    deadline = start + args.seconds
    records, durations, crashed = [], [], 0
    while True:
        n = len(records) + crashed
        now = time.monotonic()
        expected = statistics.median(durations) if durations else 0.0
        if n >= MIN_PROCESSES[args.trace] and now + expected > deadline:
            break
        if n and now - start > START_CUTOFF_S:
            break
        traced = bool(args.trace) and n % 2 == 1
        t0 = time.monotonic()
        record = run_child(input_dir, run_dir / f"p{n}", traced)
        durations.append(time.monotonic() - t0)
        if record is None:
            crashed += 1
        else:
            records.append(record)
    measured_s = time.monotonic() - start

    problems = []
    if crashed:
        problems.append(f"{crashed} process(es) crashed or timed out")
    kinds = {r["traced"] for r in records}
    if not records or (args.trace and kinds != {False, True}):
        problems.append("too few processes completed to report metrics")
    verdicts = {}
    failed_by_record = {}
    info = {}
    for r in records:
        key = (r["output_digest"], tuple(r["failed_items"]), tuple(c["rc"] for c in r["calls"]))
        if key not in verdicts:
            verdicts[key] = check_record(args.workload, spec, arrays, r, args.seed)
        verdict = verdicts[key]
        failed_by_record[id(r)] = set(r["failed_items"]) | verdict.failed_items
        info = info or verdict.info
    for verdict in verdicts.values():
        problems.extend(verdict.problems)

    env = _environment(records[0] if records else None)
    record_out = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "measured_s": measured_s,
        "processes": len(records),
        "crashed": crashed,
        "environment": env,
        "check_info": info,
        "problems": problems,
    }
    print(f"ptdeco benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"fresh processes: {len(records)} completed "
          f"({sum(r['traced'] for r in records)} traced), {crashed} crashed, {measured_s:.1f} s")
    metrics = {}
    if records and not (args.trace and kinds != {False, True}):
        values, medians, samples, failed_items, attempted_items = end_to_end(records, failed_by_record)
        raised = records[0]["raised"]
        print(f"end-to-end over {samples['setup_s']} untraced processes "
              f"({samples['units_per_process']} timed units each); "
              f"reported: second-slowest process for {', '.join(SPEED)}, else median:")
        print(f"  {'metric':<14} {'reported':<22} {'median':<22} unit")
        for name, unit in END_TO_END:
            print(f"  {name:<14} {values[name]:<22.10g} {medians[name]:<22.10g} {unit:<5} n={samples[name]}")
        fail_frac = failed_items / attempted_items
        print(f"  {'fail_frac':<14} {fail_frac:<22.10g} {fail_frac:<22.10g} {'frac':<5} "
              f"{failed_items} of {attempted_items} items; raised per process: {raised}")
        record_out["end_to_end"] = values
        record_out["end_to_end_medians"] = medians
        record_out["samples"] = samples
        record_out["per_process"] = [
            dict(process_values(r, failed_by_record[id(r)]), traced=r["traced"]) for r in records
        ]
        if args.trace:
            layer_values, layer_problems = per_layer(records, info)
            problems.extend(layer_problems)
            units = {name: unit for name, unit, _, _ in PER_LAYER}
            units[TRACE_OVERHEAD[0]] = TRACE_OVERHEAD[1]
            print(f"per-layer (median over {sum(r['traced'] for r in records)} traced processes):")
            for name, value in layer_values.items():
                print(f"  {name:<44} {value:<22.10g} {units[name]}")
            record_out["per_layer"] = layer_values
            metrics = {name: {"value": value, "unit": units[name]} for name, value in layer_values.items()}
        else:
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(f"checks: {'ok' if not problems else 'FAILED'} {json.dumps(info, sort_keys=True)}")
    for problem in problems:
        print(f"  problem: {problem}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items() if k != "scope"))
    print(f"scope: {SCOPE}")
    OUT_ROOT.mkdir(exist_ok=True)
    record_path = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record_out, fh, indent=1)
    print(f"record: {record_path.relative_to(ROOT)}")
    if not metrics:
        print("error: no metrics could be computed", file=sys.stderr)
        return 1
    result = {
        "correct": not problems,
        "attempted": len(records) + crashed,
        "failed": crashed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
