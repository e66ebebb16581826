"""qmbox benchmark: one workload, one seed, one fresh process.

Run from the repository root:

    python3 perfbench/run.py --workload catalog-1d --seed 1 --seconds 20 --trace 0

The solver is imported from ./src.  With --trace 0 the last line of standard
output is a JSON object with the end-to-end metrics; with --trace 1 it holds
the per-layer metrics of a traced replay of the same requests, and the spans
go to perfbench/out/.  The exit code is 0 only when every result passed its
check.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

import tracing  # stdlib only; modules that load numpy are imported in main()

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("catalog-1d", "scan-1d", "hh-2d")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 120
MAX_FAILURES_SHOWN = 20

# A fresh interpreter imports qmbox and makes the workload's first solve.
SETUP_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from qmbox import builtin_problem, solve
problem_id, overrides, n_states = json.loads(sys.argv[2])
solve(builtin_problem(problem_id, **overrides), n_states)
"""

END_TO_END = {   # name -> (unit, better)
    "setup_s": ("s", "lower"),
    "requests_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_tail_ms": ("ms", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
    "accuracy_digits": ("digits", "higher"),
}

# Layer times are self seconds per traced request.
SPAN_METRICS = {
    "problems.build_s": "problems.build",
    "expr.parse_s": "expr.parse",
    "operators.grid_values_s": "operators.grid_values",
    "operators.momentum_s": "operators.momentum",
    "hamiltonian.kinetic_s": "hamiltonian.kinetic",
    "eig.diagonalize_s": "eig.diagonalize",
    "eig.phase_fix_s": "eig.phase_fix",
    "eig.parity_s": "eig.parity",
    "solve.total_s": "solve",
    "analysis.scan_s": "analysis.scan",
    "analysis.completeness_s": "analysis.completeness",
    "analysis.compare_s": "analysis.compare",
    "cli.main_s": "cli.main",
}
PER_LAYER = {name: ("s", "lower") for name in SPAN_METRICS}
PER_LAYER.update({
    "hamiltonian.assemble_s": ("s", "lower"),
    "hamiltonian.matrix_mib": ("MiB", "lower"),
    "lattice.guard_mib": ("MiB", "lower"),
    "eig.flop_count": ("flop", "lower"),
    "eig.gflops_computed": ("GFLOP/s", "higher"),
    "eig.general_path_share": ("ratio", "lower"),
    "eig.residual_max": ("rel", "lower"),
    "solve.unattributed_s": ("s", "lower"),
    "trace.overhead_ms": ("ms", "lower"),
    "trace.requests": ("count", "higher"),
})


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def blas_threads() -> int:
    """The processors this process may run on: the BLAS thread count."""
    return len(os.sched_getaffinity(0))


def configure_environment(threads: int):
    """Fix the BLAS thread count before numpy is imported; the package's own
    QMBOX_MAX_THREADS knob is not relied on and is cleared."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    os.environ.pop("QMBOX_MAX_THREADS", None)


def measure_setup(src: str, warmup) -> list[float]:
    """Wall seconds of fresh processes that import qmbox and make the
    workload's first solve."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        child = subprocess.Popen([sys.executable, "-c", SETUP_CHILD, src, json.dumps(warmup)],
                                 stdin=subprocess.DEVNULL)
        # a blocking wait: Popen.wait(timeout) polls in steps of up to 50 ms
        watchdog = threading.Timer(SETUP_TIMEOUT_S, child.kill)
        watchdog.start()
        try:
            code = child.wait()
        finally:
            watchdog.cancel()
        samples.append(time.perf_counter() - t0)
        if code != 0:
            raise RuntimeError(f"set-up process exited with code {code}")
    return samples


def observed_blas_threads() -> dict[str, int]:
    """Threads each bundled OpenBLAS reports, read through ctypes."""
    import ctypes
    import glob

    import numpy
    import scipy
    found = {}
    for package in (numpy, scipy):
        libdir = os.path.join(os.path.dirname(os.path.dirname(package.__file__)),
                              package.__name__ + ".libs")
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*.so*"))):
            lib = ctypes.CDLL(path)
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                getter = getattr(lib, symbol, None)
                if getter is not None:
                    getter.argtypes, getter.restype = [], ctypes.c_int
                    found[os.path.basename(path)] = int(getter())
                    break
    return found


def environment(threads: int, seed: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": threads,
        "blas_threads_observed": observed_blas_threads(),
        "seed": seed,
    }


def end_to_end_metrics(loop, setup_samples) -> tuple[dict, dict]:
    tail, percentile = tracing.tail_latency(loop.latencies)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "requests_per_s": len(loop.requests) / loop.rounds / tracing.low_decile(loop.round_seconds),
        "latency_p50_ms": statistics.median(loop.latencies) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "accuracy_digits": tracing.accuracy_digits(
            [v.worst_rel for v in loop.verdicts if v.worst_rel is not None]),
    }
    samples = {name: len(loop.requests) for name in metrics}
    samples["setup_s"] = len(setup_samples)
    samples["requests_per_s"] = loop.rounds
    samples["peak_rss_mib"] = 1
    samples["tail_percentile"] = "max (10 samples or fewer)" if percentile is None else f"p{percentile:.2f}"
    return metrics, samples


def per_layer_metrics(tracer, plain, traced) -> dict:
    totals = tracer.self_times()
    n = len(traced.requests)

    def per_request(span):
        return totals.get(span, (0.0, 0))[0] / n

    metrics = {name: per_request(span) for name, span in SPAN_METRICS.items()}
    diag_seconds, diag_calls = totals.get("eig.diagonalize", (0.0, 0))
    flops = tracer.notes.get("eig.flops", 0.0)
    metrics.update({
        "hamiltonian.assemble_s": per_request("hamiltonian.build") - per_request("hamiltonian.kinetic"),
        "hamiltonian.matrix_mib": tracer.notes.get("hamiltonian.matrix_mib", 0.0),
        "lattice.guard_mib": tracer.notes.get("lattice.guard_mib", 0.0),
        "eig.flop_count": flops / n,
        "eig.gflops_computed": flops / diag_seconds / 1e9 if diag_seconds else 0.0,
        "eig.general_path_share": (tracer.notes.get("eig.general_calls", 0) / diag_calls
                                   if diag_calls else 0.0),
        "eig.residual_max": tracer.notes.get("eig.residual_max", 0.0),
        "solve.unattributed_s": per_request("solve") - sum(
            per_request(s) for s in ("hamiltonian.build", "eig.diagonalize",
                                     "eig.phase_fix", "eig.parity")),
        "trace.overhead_ms": (statistics.median(traced.latencies)
                              - statistics.median(plain.latencies)) * 1e3,
        "trace.requests": n,
    })
    return metrics


def baseline_rows() -> list[dict]:
    """Stage times of the roadmap's baseline problems, one fresh tracer each."""
    import workloads
    rows = []
    for label, problem_id, overrides, n_states in workloads.BASELINE_ROWS:
        tracer = tracing.Tracer()
        problem = tracer.call("problems.build", workloads.builtin_problem, problem_id, **overrides)
        spectrum = workloads.stages(problem, n_states, tracer)
        t = {name: seconds for name, (seconds, _) in tracer.self_times().items()}
        dim = spectrum.eigenvectors.shape[0]
        rows.append({
            "problem": label, "dim": dim,
            "path": ("eigh-subset" if n_states else "eigh") if spectrum.hermitian_path else "eig",
            "dtype": str(spectrum.eigenvectors.dtype),
            "kinetic_s": t["hamiltonian.kinetic"],
            "assemble_s": t["hamiltonian.build"] - t["hamiltonian.kinetic"],
            "eig_s": t["eig.diagonalize"],
            "phase_fix_s": t["eig.phase_fix"],
            "parity_s": t.get("eig.parity", 0.0),
        })
        del spectrum
    return rows


def print_metrics(metrics, table, samples=None):
    for name, value in metrics.items():
        unit, better = table[name]
        n = f"  n={samples[name]}" if samples else ""
        print(f"# {name:<26} {value:>14.6g} {unit:<8} {better} is better{n}")


def main(argv=None) -> int:
    args = parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "qmbox", "__init__.py")):
        print("perfbench: no qmbox sources under ./src; run from the repository root",
              file=sys.stderr)
        return 2
    threads = blas_threads()
    configure_environment(threads)
    sys.path.insert(0, src)

    import workloads
    import qmbox
    from qmbox.bench import run_benchmarks
    if os.path.dirname(os.path.abspath(qmbox.__file__)) != os.path.join(src, "qmbox"):
        print(f"perfbench: qmbox imported from {qmbox.__file__}, not ./src", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    setup_samples = measure_setup(src, workload.warmup)

    # Preflight: never time a program that gives wrong spectra.
    gates = run_benchmarks()
    if not all(gate.passed for gate in gates):
        for gate in gates:
            print(f"perfbench: gate {gate.name}: {'PASS' if gate.passed else 'FAIL'} "
                  f"{gate.detail}", file=sys.stderr)
        print("perfbench: preflight qmbox bench failed; nothing timed", file=sys.stderr)
        return 3

    problem_id, overrides, n_states = workload.warmup
    workloads.solve(workloads.builtin_problem(problem_id, **overrides), n_states)
    env = environment(threads, args.seed)
    if any(n > threads for n in env["blas_threads_observed"].values()):
        print(f"perfbench: BLAS runs {env['blas_threads_observed']} threads, more than "
              f"{threads}; nothing timed", file=sys.stderr)
        return 2

    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        ctx = workloads.Context(workdir)
        workload.prepare(ctx)
        plain = workloads.run_loop(workload, args.seed, ctx, tracing.NullTracer(),
                                   seconds=args.seconds)
        loops = [plain]
        if args.trace:
            tracer = tracing.Tracer()
            traced = workloads.run_loop(workload, args.seed, ctx, tracer, rounds=plain.rounds)
            loops.append(traced)
            metrics = per_layer_metrics(tracer, plain, traced)
            baseline = baseline_rows()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(loop.requests) for loop in loops)
    failed = sum(loop.failed for loop in loops)
    print(f"# workload {args.workload}, seed {args.seed}, closed loop with one client, "
          f"{plain.rounds} rounds, {len(plain.requests)} requests in {plain.elapsed:.2f} s; "
          f"overall {len(plain.requests) / plain.elapsed:.4g} requests/s")
    print("# environment " + json.dumps(env))
    failures = [(r, v) for loop in loops for r, v in zip(loop.requests, loop.verdicts) if not v.ok]
    for request, verdict in failures[:MAX_FAILURES_SHOWN]:
        print(f"# FAILED {request.kind} {request.params}: {verdict.detail}")
    print(f"# failed_ratio {failed / attempted:.6g} ({failed} of {attempted} requests)")

    if args.trace:
        print_metrics(metrics, PER_LAYER)
        calls = {name: c for name, (_, c) in sorted(tracer.self_times().items())}
        print("# span calls " + json.dumps(calls))
        print("# baseline rows (seconds): problem, dim, path, dtype, kinetic, assemble, "
              "eig, phase_fix, parity")
        for row in baseline:
            print(f"#   {row['problem']:<30} {row['dim']:>5} {row['path']:<11} {row['dtype']:<10} "
                  f"{row['kinetic_s']:.4f} {row['assemble_s']:.4f} {row['eig_s']:.4f} "
                  f"{row['phase_fix_s']:.4f} {row['parity_s']:.4f}")
        os.makedirs(OUT, exist_ok=True)
        trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({
                "workload": args.workload, "environment": env,
                "flop_model": workloads.FLOP_MODEL,
                "self_times": tracer.self_times(), "per_layer": metrics,
                "baseline": baseline,
                "spans": [[s.name, s.start, s.end, s.span_id, s.parent, s.request]
                          for s in tracer.spans],
            }, fh)
        print(f"# spans written to {os.path.relpath(trace_path)}")
        table = PER_LAYER
    else:
        metrics, samples = end_to_end_metrics(plain, setup_samples)
        print_metrics(metrics, END_TO_END, samples)
        print(f"# latency_tail_ms is {samples['tail_percentile']} of {len(plain.latencies)} "
              f"requests; setup samples {[round(s, 4) for s in setup_samples]}")
        table = END_TO_END

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": table[name][0]}
                    for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
