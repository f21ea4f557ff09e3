"""psm benchmark: one command for every workload, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload in turn

Run it from the repository root: psm is imported from ./src and from
nowhere else. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones; with --trace 1 half the time runs untraced and
half with every layer boundary wrapped, and the metrics are the per-layer
ones plus the tracing overhead. The line before it records the machine,
the seed and the src/ line count. See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import numpy
import scipy

from tracing import LAYER_METRICS, Recorder, installed, layer_metrics
from workloads import WORKLOADS, EvalFiles, Meter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5


def import_psm():
    """Put ./src first on sys.path; refuse to run against any other psm."""
    if not os.path.isfile(os.path.join(SRC, "psm", "__init__.py")):
        sys.exit(f"perfbench: no psm sources at {SRC}; run from the repository root")
    sys.path.insert(0, SRC)
    import psm
    if os.path.dirname(os.path.dirname(os.path.abspath(psm.__file__))) != SRC:
        sys.exit(f"perfbench: imported psm from {psm.__file__}, not from {SRC}")


def machine(seed):
    from psm.core import resolve_threads
    src_lines = 0
    for d, _, files in os.walk(SRC):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(d, f), "rb") as fh:
                    src_lines += fh.read().count(b"\n")
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "psm_threads": resolve_threads(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "seed": seed, "src_lines": src_lines}


def _children_cpu_s():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def setup_seconds(workload, seed):
    """Medians of (CPU seconds, wall seconds) of a fresh process importing
    psm and running the workload's warm-up round."""
    cpu, wall = [], []
    for _ in range(SETUP_REPEATS):
        t0, c0 = perf_counter(), _children_cpu_s()
        subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                        "--warm-up-only", "--workload", workload, "--seed", str(seed)],
                       check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        wall.append(perf_counter() - t0)
        cpu.append(_children_cpu_s() - c0)
    return statistics.median(cpu), statistics.median(wall)


def measure(work, seconds, meter, first_round):
    """Whole rounds until `seconds` of wall time have passed."""
    end = perf_counter() + seconds
    r = first_round
    while True:
        work.round(r, meter)
        r += 1
        if perf_counter() >= end:
            return r


def run_workload(name, seed, seconds, trace, workdir):
    setup_s, setup_wall_s = setup_seconds(name, seed)
    work = WORKLOADS[name](seed, workdir)
    work.warm_up()
    plain = Meter()
    if not trace:
        measure(work, seconds, plain, 0)
        meters = [plain]
        metrics = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            "throughput_per_cpu_s": (statistics.median(plain.cpu_rates), "1/cpu-s"),
        }
    else:
        rec = Recorder()
        traced = Meter(rec)
        r = measure(work, seconds / 2.0, plain, 0)
        with installed(rec):
            measure(work, seconds / 2.0, traced, r)
        meters = [plain, traced]
        layers = layer_metrics(rec, traced.units)
        metrics = {k: (v, LAYER_METRICS[k][2]) for k, v in layers.items()}
        rate = [statistics.median(m.cpu_rates) for m in meters]
        metrics["trace.overhead_pct"] = (100.0 * (rate[0] / rate[1] - 1.0), "%")
        metrics["wall_throughput_per_s"] = (statistics.median(plain.rates), "1/s")
        # per-command medians exist on eval-files only; elsewhere they read 0
        for cmd in EvalFiles.COMMANDS:
            calls = plain.call_ms.get(cmd)
            metrics[f"cli_{cmd}_ms"] = (statistics.median(calls) if calls else 0.0, "ms")
    detail = {
        "workload": name, "unit": work.unit, "units": sum(m.units for m in meters),
        "timed_s": sum(m.timed_s for m in meters),
        "cpu_s": sum(m.cpu_s for m in meters),
        "throughput_per_s": statistics.median(plain.rates),
        "setup_wall_s": setup_wall_s,
        "cli_ms": {k: statistics.median(v) for k, v in plain.call_ms.items()},
        "machine": machine(seed),
        "errors": [e for m in meters for e in m.errors][:10],
        "problems": [p for m in meters for p in m.problems][:10],
    }
    result = {
        "correct": not any(m.problems for m in meters),
        "attempted": sum(m.attempted for m in meters),
        "failed": sum(m.failed for m in meters),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return detail, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--warm-up-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    import_psm()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        if args.warm_up_only:
            WORKLOADS[args.workload](args.seed, workdir).warm_up()
            return 0
        results = []
        for name in names:
            detail, result = run_workload(name, args.seed, args.seconds,
                                          args.trace, workdir)
            print(json.dumps(detail))
            results.append((name, result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it
    if len(results) == 1:
        print(json.dumps(results[0][1]))
        return 0
    for name, res in results:
        for k, m in res["metrics"].items():
            print(f"{name:14s} {k:28s} {m['value']:14.6g} {m['unit']}")
        print(f"{name:14s} attempted {res['attempted']} failed {res['failed']} "
              f"correct {res['correct']}")
    print(json.dumps({
        "correct": all(r["correct"] for _, r in results),
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": {f"{n}/{k}": m for n, r in results for k, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
