"""Benchmark runner: one workload, one process, one compute thread.

    python3 perfbench/run.py --workload defect-neg --seed 1 --seconds 30 --trace 0

A closed loop: one client runs the workload's case list pass after pass in
this process: two passes, then more until the next would end after
`--seconds`.  Set-up is timed in five fresh interpreters (imports, inputs and a
small warm-up pass) and reported as their median.  `--trace 1` adds two
traced passes, one before and one after the untraced ones, and reports the
per-layer metrics instead of the end-to-end ones.

The last line of standard output is the result as one JSON object; the lines
before it are a readable report with the seed, samples, quartiles and the
figures and misses of every case.
"""

import os

# One compute thread: pin the BLAS/OpenMP pools before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402  (puts the checkout's src/ on sys.path)
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
MIN_PASSES = 2
SETUP_TIMEOUT_S = 120

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    **{name: "1" for name in workloads.ACCURACY},
}


def setup_samples(name, seed):
    """Wall time of SETUP_SAMPLES fresh interpreters that import, build the
    inputs and warm up, one after another."""
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); import workloads; "
            f"workloads.setup({name!r}, {seed})")
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=SETUP_TIMEOUT_S,
                       stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return samples


def untraced_passes(cases, seconds):
    """MIN_PASSES passes, then more until the next one, at the median pass
    time, would end after `seconds`."""
    times, passes = [], []
    start = time.perf_counter()
    while True:
        elapsed, results = workloads.run_pass(cases)
        times.append(elapsed)
        passes.append(results)
        spent = time.perf_counter() - start
        if len(times) >= MIN_PASSES and spent + statistics.median(times) > seconds:
            return times, passes


def traced_pass(cases):
    tracer = tracing.Tracer()
    elapsed, results = workloads.run_pass(cases, tracer)
    stats = tracer.take()
    self_s = sum(v for k, v in stats.items() if k.endswith(".s"))
    stats["trace.attributed_frac"] = self_s / elapsed
    return elapsed, results, stats


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    setup_s = setup_samples(args.workload, args.seed)
    cases = workloads.setup(args.workload, args.seed)

    traced = [traced_pass(cases)] if args.trace else []
    times, untraced = untraced_passes(cases, args.seconds)
    if args.trace:
        traced.append(traced_pass(cases))
    passes = untraced + [r for _, r, _ in traced]

    attempted = sum(len(p) for p in passes)
    failed = sum(r.failed for p in passes for r in p)
    unexpected = sorted({f"{r.name}: {m}" for p in passes for r in p for m in r.unexpected()})
    correct = not unexpected
    last = untraced[-1]
    accuracy = workloads.accuracy(last)

    if args.trace:
        first, second = traced[0][2], traced[1][2]
        drifted = sorted(k for k in first if tracing.repeatable(k) and first[k] != second[k])
        if drifted:
            correct = False
            unexpected.append("counters differ between traced passes: " + ", ".join(drifted))
        layers = {}
        for name in tracing.metric_units():
            if tracing.repeatable(name) or name.endswith("_mb"):
                layers[name] = first[name]
            else:
                layers[name] = statistics.fmean([first[name], second[name]])
        traced_s = statistics.fmean([t for t, _, _ in traced])
        layers["trace.overhead_frac"] = traced_s / statistics.median(times) - 1.0
        metrics = {k: {"value": layers[k], "unit": u} for k, u in tracing.metric_units().items()}
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "wall_s": statistics.median(times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **accuracy,
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s_samples": setup_s,
        "wall_s_samples": times,
        "wall_s_quartiles": statistics.quantiles(times, n=4, method="inclusive"),
        "traced_pass_s": [t for t, _, _ in traced],
        "failed_frac": failed / attempted,
        "unexpected_misses": unexpected,
        "not_measured": [k for k, v in accuracy.items() if v == workloads.NOT_MEASURED],
        "cases": [{"name": r.name, "figures": r.figures, "misses": r.misses,
                   "error": r.error} for r in last],
    }
    print(json.dumps(report, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
