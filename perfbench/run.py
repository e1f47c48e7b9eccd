"""vemrcp benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload study-recover --seed 0 --seconds 30 --trace 0

Run from the root of a vemrcp checkout; the package is imported from its
`src/`. The untraced run (`--trace 0`) repeats whole workload passes until
`--seconds` is used up and reports the end-to-end metrics: median pass time
`study_s`, median set-up time `setup_s` over several fresh interpreters, and
peak resident memory `peak_rss_mb`. The traced run (`--trace 1`) alternates
untraced and traced passes and reports the per-layer metrics of `spans.py`.
Every level of every pass goes through the correctness gate of
`workloads.py`. The last line of standard output is one JSON object with the
keys `correct`, `attempted` (levels run), `failed` (levels that failed the
gate) and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
PROBE_TIMEOUT_S = 60
READY = "ready"
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


def parse_args(argv=None):
    from workloads import SIZES, WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="full",
                   help="'tiny' shrinks every workload, for testing the benchmark itself")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_vemrcp():
    """Import vemrcp from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, str(SRC))
    import vemrcp

    if SRC.resolve() not in Path(vemrcp.__file__).resolve().parents:
        raise ImportError(f"vemrcp was imported from {vemrcp.__file__}, not from {SRC}")
    return vemrcp


def measure_setup(args) -> list[float]:
    """Seconds from spawning a fresh interpreter until it is ready to call the workload."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        if line != READY or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
        samples.append(elapsed)
    return samples


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        commit = done.stdout.strip() or "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v, "unset") for v in BLAS_THREAD_VARS},
        "commit": commit,
    }


class Runner:
    """Runs and checks passes of one workload, counting levels as it goes."""

    def __init__(self, workload, references, out_dir: Path):
        self.workload = workload
        self.references = references
        self.out_dir = out_dir
        self.attempted = 0
        self.failures: list[str] = []

    def run_pass(self) -> float:
        from workloads import check_pass

        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)
        start = time.perf_counter()
        errors, problems = self.workload.run_pass(self.out_dir)
        elapsed = time.perf_counter() - start
        for (family, n), why in check_pass(self.workload, errors, problems,
                                           self.references).items():
            self.attempted += 1
            if why is not None:
                self.failures.append(f"{family} n={n}: {why}")
        return elapsed


def timed_loop(seconds: float, passes):
    """Call each pass function in turn until the next pass would overrun `seconds`.

    Every function runs at least once. Returns the list of durations per function.
    """
    times = [[] for _ in passes]
    start = time.perf_counter()
    k = 0
    while True:
        i = k % len(passes)
        times[i].append(passes[i]())
        k += 1
        done = all(times)
        typical = statistics.median(t for ts in times for t in ts)
        if done and k % len(passes) == 0 and time.perf_counter() - start + typical > seconds:
            return times


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH_DIR))
    args = parse_args(argv)
    try:
        import_vemrcp()
    except ImportError as exc:
        print(f"perfbench: cannot import vemrcp from {SRC}: {exc}", file=sys.stderr)
        return 2

    from workloads import load_references, make_workload

    workload = make_workload(args.workload, args.seed, args.size)
    references = load_references(args.workload, args.size)
    if args.setup_probe:
        print(READY, flush=True)
        return 0

    # The workloads run vemrcp single-threaded, which the span stack relies on.
    threads_env = os.environ.pop("VEMRCP_THREADS", "unset")
    env = environment()
    env["VEMRCP_THREADS"] = f"{threads_env} (removed; workloads use one worker)"
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    setup = measure_setup(args) if args.trace == 0 else []
    out_dir = ROOT / ".perfbench_out" / f"run-{os.getpid()}"
    runner = Runner(workload, references, out_dir)
    try:
        if args.trace == 0:
            (times,) = timed_loop(args.seconds, [runner.run_pass])
            metrics = end_to_end(times, setup)
        else:
            metrics = traced(runner, args.seconds)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            out_dir.parent.rmdir()

    for name, m in metrics.items():
        print(f"{name:<44} {m['value']:.6g} {m['unit']}")
    print(f"{'levels_attempted':<44} {runner.attempted} count")
    print(f"{'levels_failed':<44} {len(runner.failures)} count")
    for why in runner.failures:
        print(f"FAILED {why}")
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": metrics,
    }))
    return 0


def end_to_end(times, setup) -> dict:
    q1, q3 = quartiles(times)
    print(f"study_s over {len(times)} passes: median {statistics.median(times):.4f} s, "
          f"quartiles {q1:.4f} / {q3:.4f} s, all {[round(t, 4) for t in times]}")
    print(f"setup_s over {len(setup)} fresh interpreters: {[round(t, 4) for t in setup]}")
    return {
        "study_s": {"value": statistics.median(times), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }


def traced(runner: Runner, seconds: float) -> dict:
    """Alternate untraced and traced passes; report the traced passes' layer medians."""
    from spans import PER_LAYER, Tracer

    tracer = Tracer()
    per_pass = []

    def traced_pass():
        tracer.reset()
        with tracer.installed():
            elapsed = runner.run_pass()
        per_pass.append(tracer.layer_metrics(elapsed))
        return elapsed

    untraced_times, traced_times = timed_loop(seconds, [runner.run_pass, traced_pass])
    print(f"untraced passes {[round(t, 4) for t in untraced_times]}, "
          f"traced passes {[round(t, 4) for t in traced_times]}")
    overhead = statistics.median(traced_times) - statistics.median(untraced_times)
    units = dict(PER_LAYER)
    metrics = {
        name: {"value": statistics.median(p[name] for p in per_pass), "unit": units[name]}
        for name in per_pass[0]
    }
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return {name: metrics[name] for name, _ in PER_LAYER}


if __name__ == "__main__":
    sys.exit(main())
