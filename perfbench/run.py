"""kernelmix benchmark: four workloads, end-to-end metrics and a traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload select --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

Each workload runs in its own process as a closed loop with one client: one
untimed warm-up operation, then operations back to back until --seconds
have passed. Every operation's output is checked. With --trace 0 the last
stdout line is a JSON object with the end-to-end metrics; with --trace 1 the
loop alternates traced and untraced operations and reports per-layer metrics
(see perfbench/README.md). Results, the environment and, for traced runs,
every span are written under .perfbench/results/.
"""

import time

T_START = time.perf_counter()

import argparse
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

from tracing import COUNTS, METRICS, Tracer, layer_metrics

# One BLAS thread: pinned before numpy loads; it gave the smaller run-to-run spread.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# Pin the process to one CPU: the CPUs of a shared host can differ in speed,
# and moving between them mid-run widened the spread.
NPROC = len(os.sched_getaffinity(0))
PINNED_CPU = max(os.sched_getaffinity(0))

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOAD_NAMES = ("fit", "score", "select", "diagnose")
SETUP_REPS = 3
WARMUP_OPS = 1

#: Gated end-to-end metrics (every workload reports each of them).
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "op_s": "s"}
#: The workload-specific operation metrics; a workload reports those it runs.
OP_METRICS = {
    "train_s": "s", "predict_s": "s", "test_accuracy": "fraction", "score_s": "s",
    "select_s": "s", "cv_select_s": "s", "mmd_select_s": "s", "diagnose_s": "s",
}
#: The table printed for every workload: the end-to-end metrics named by the issue.
TABLE = ("setup_s", "peak_rss_mb", "fail_rate", *OP_METRICS)
UNITS = {**END_TO_END, **OP_METRICS, "fail_rate": "fraction"}
#: Metrics of a traced run: the layers', the tracing overhead, and the
#: operation metrics above from the run's untraced operations (0 where the
#: workload does not run them).
PER_LAYER = {
    **METRICS,
    "trace.untraced_op_s": "s",
    "trace.overhead_s": "s",
    **{name: UNITS[name] for name in ("fail_rate", *OP_METRICS)},
}


def median(values):
    return statistics.median(values) if values else None


def tail_percentile(values):
    """Highest of p99.9/p99/p90 with at least ten samples beyond it, if any."""
    ordered = sorted(values)
    for p in (99.9, 99.0, 90.0):
        beyond = len(ordered) * (1.0 - p / 100.0)
        if beyond >= 10:
            return p, ordered[min(len(ordered) - 1, int(len(ordered) * p / 100.0))]
    return None


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    in_effect = None
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "libscipy_openblas*"))
    if libs:
        import ctypes

        lib = ctypes.CDLL(libs[0])
        getter = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        in_effect = getter() if getter is not None else None
    with open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": NPROC,
        "blas_threads": BLAS_THREADS,
        "blas_threads_in_effect": in_effect,
        "pinned_cpu": PINNED_CPU,
        "cpu": cpu,
    }


def run_op(workload, tracer):
    """One operation: (seconds, checked metrics, index of its root span or None)."""
    t0 = time.perf_counter()
    if tracer is None:
        raw, first = workload.op(), None
    else:
        raw, first = tracer.run_op(workload.op)
    seconds = time.perf_counter() - t0
    return seconds, workload.check(raw), first


def closed_loop(workload, seconds, trace):
    """Warm up, then run operations until ``seconds`` have passed.

    Untraced runs time every operation. Traced runs alternate traced and
    untraced operations (traced first) and, unless an operation failed,
    stop only once at least two traced and one untraced have completed.
    """
    tracer = Tracer() if trace else None
    untraced, traced, layers = [], [], []
    attempted = failed = 0

    def attempt(use_tracer, sink):
        nonlocal attempted, failed
        attempted += 1
        try:
            op_s, metrics, first = run_op(workload, use_tracer)
        except Exception:  # a failed operation is counted, and the loop goes on
            failed += 1
            print(f"operation {attempted} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return
        if sink is not None:
            sink.append((op_s, metrics))
        if first is not None:
            spans = tracer.spans[first:]
            layers.append(layer_metrics(spans, first, workload.input_rows, metrics["output_bytes"]))

    for _ in range(WARMUP_OPS):
        attempt(None, None)
    start = time.perf_counter()
    while True:
        enough = (len(traced) >= 2 if trace else True) and bool(untraced)
        if time.perf_counter() - start >= seconds and (enough or failed):
            break
        if trace and len(traced) <= len(untraced):
            attempt(tracer, traced)
        else:
            attempt(None, untraced)
    return untraced, traced, layers, attempted, failed, tracer


def layer_report(traced, layers):
    """Metrics of the traced operation with the median time, so the layers'
    self times add up to that operation's time; and whether counts repeat."""
    order = sorted(range(len(traced)), key=lambda i: traced[i][0])
    chosen = layers[order[(len(order) - 1) // 2]]
    repeats = all(all(m[c] == chosen[c] for c in COUNTS) for m in layers)
    return chosen, repeats


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    if not (SRC / "kernelmix" / "__init__.py").is_file():
        print(f"error: no kernelmix sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import kernelmix
    from workloads import WORKLOADS

    if Path(kernelmix.__file__).resolve().parent != SRC / "kernelmix":
        print(f"error: imported kernelmix from {kernelmix.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START
    os.sched_setaffinity(0, {PINNED_CPU})

    workdir = WORK / f"run-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            workload = WORKLOADS[args.workload](args.seed, str(workdir))
            workload.setup()
            setup_times.append(time.perf_counter() - t0)
        untraced, traced, layers, attempted, failed, tracer = closed_loop(workload, args.seconds, args.trace)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        try:
            workload.finish()
        except Exception:  # the final cross-check rejects every checked operation
            print(f"final check failed:\n{traceback.format_exc()}", file=sys.stderr)
            failed = attempted
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    samples = {"op_s": [s for s, _ in untraced]}
    for name in OP_METRICS:
        values = [m[name] for _, m in untraced if name in m]
        if values:
            samples[name] = values
    table = {name: {"value": median(values), "samples": len(values)} for name, values in samples.items()}
    table["setup_s"] = {"value": import_s + median(setup_times), "samples": SETUP_REPS}
    table["peak_rss_mb"] = {"value": peak_rss_mb, "samples": 1}
    table["fail_rate"] = {"value": failed / attempted, "samples": attempted}
    correct = failed == 0 and bool(untraced)
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(
        f"workload {args.workload} seed {args.seed}: {attempted} operations "
        f"({WARMUP_OPS} warm-up, excluded from timings), {failed} failed"
    )
    print_table(table, samples)

    if args.trace:
        chosen, repeats = layer_report(traced, layers) if layers else ({}, False)
        if layers and not repeats:
            print("error: counts differ between traced operations", file=sys.stderr)
        correct = correct and repeats and len(layers) >= 2
        values = {
            **chosen,
            "trace.untraced_op_s": table["op_s"]["value"],
            "trace.overhead_s": median([s for s, _ in traced]) - table["op_s"]["value"] if traced and untraced else None,
            **{name: table.get(name, {"value": 0.0})["value"] for name in ("fail_rate", *OP_METRICS)},
        }
        print(f"per-layer metrics of the median of {len(layers)} traced operations:")
        for name, unit in PER_LAYER.items():
            print(f"  {name:36s} {fmt(values.get(name))} {unit}")
        metrics = {name: {"value": values.get(name), "unit": unit} for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": table[name]["value"], "unit": unit} for name, unit in END_TO_END.items()}

    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "import_s": import_s, "setup_times": setup_times, "samples": samples,
        "table": table, "result": result,
    }
    if args.trace:
        record.update(layers=layers, counts_repeat=repeats)
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        Path(f"{stem}.spans.json").write_text(json.dumps(tracer.dump()) + "\n")
    print(json.dumps(result))
    return 0


def fmt(value):
    return "n/a" if value is None else f"{value:.6g}"


def print_table(table, samples):
    """The issue's end-to-end metrics, by name, with unit and sample count."""
    for name in (*TABLE, "op_s"):
        entry = table.get(name)
        if entry is None:
            print(f"  {name:14s} n/a (not run by this workload)")
            continue
        tail = tail_percentile(samples[name]) if name in samples else None
        tail_note = f", p{tail[0]:g} {tail[1]:.6g}" if tail else ""
        print(f"  {name:14s} {fmt(entry['value'])} {UNITS[name]} (n={entry['samples']}{tail_note})")


def run_all(args):
    """Every workload in its own fresh process, then one table of all workloads."""
    tables, ok = {}, True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return 1
        ok = ok and json.loads(proc.stdout.strip().splitlines()[-1])["correct"]
        record = json.loads((WORK / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json").read_text())
        tables[name] = record["table"]
    print(f"\n{'metric':14s} {'unit':9s}" + "".join(f"{w:>20s}" for w in WORKLOAD_NAMES))
    for metric in (*TABLE, "op_s"):
        cells = []
        for w in WORKLOAD_NAMES:
            entry = tables[w].get(metric)
            cells.append("n/a" if entry is None else f"{entry['value']:.4g} (n={entry['samples']})")
        print(f"{metric:14s} {UNITS[metric]:9s}" + "".join(f"{c:>20s}" for c in cells))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
