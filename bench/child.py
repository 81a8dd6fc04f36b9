"""One benchmark process: set up one workload, then run whole passes of its
task list until the time budget is spent, and print the numbers as one JSON
line. `run.py` starts it; it is not meant to be called by hand.

Modes: `plain` runs the package untouched; `spans` installs the tracer and
records per-layer self times and counters; `memory` adds `tracemalloc` for
per-span memory peaks; `setup` stops after set-up, for its time alone.

On workloads marked `scaled`, the process times a fixed piece of reference
work that does not touch the package (`Reference`) before a pass, after it
and between its tasks. A pass's `scale` is `REFERENCE_S`, the reference
work's nominal time, over the mean of those times. `run.py` multiplies the
pass's task times by it, so that the shared machine's drifts in speed cancel
out (see README.md, "Time scaled to reference speed"). Set-up time is scaled
on every workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import tracemalloc

import numpy as np


def _environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


# The reference work: pure-Python JSON encoding with indent (as the package's
# `io.dumps_json`), building and using an argparse parser (as `cli`), and a
# small BLAS product (as `modules` and `lifting`). None of it calls the package.
REFERENCE_S = 0.0035  # nominal seconds of one run of the reference work
REFERENCE_EVERY_S = 0.1  # task time between two runs of it, at most


class Reference:
    def __init__(self):
        self.data = [[(7 * i + j) % 97 / 13.0 for j in range(24)] for i in range(24)]
        self.matrix = np.random.default_rng(0).standard_normal((96, 96))

    def work(self) -> float:
        """Seconds taken by one fixed piece of work that does not use the package."""
        t0 = time.perf_counter()
        json.loads(json.dumps(self.data, indent=2))
        parser = argparse.ArgumentParser(prog="reference")
        sub = parser.add_subparsers(dest="command")
        for k in range(6):
            command = sub.add_parser(f"c{k}")
            for a in range(4):
                command.add_argument(f"--o{a}", type=int, default=a)
        parser.parse_args(["c3", "--o1", "5"])
        (self.matrix @ self.matrix).sum()
        return time.perf_counter() - t0

    def speed(self) -> float:
        """Time of the reference work run right after a run of itself, so that
        the caches hold the same state whatever the package's tasks left there."""
        self.work()
        return self.work()


def _trimmed_mean(values: list[float]) -> float:
    """Mean without the highest and lowest tenth: the machine's speed over a
    pass, robust to a sample that was preempted."""
    k = len(values) // 10
    return statistics.mean(sorted(values)[k:len(values) - k])


def _tree_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(path)
        for name in names
    )


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "spans", "memory", "setup"), required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="wall-clock time at which the parent started this process")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    import graphlift

    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(graphlift.__file__).startswith(src + os.sep):
        print(f"graphlift imported from {graphlift.__file__}, not {src}", file=sys.stderr)
        return 2

    from tracer import Tracer
    from workloads import WORKLOADS, check_task, run_task

    workload = WORKLOADS[args.workload](args.tiny)
    inputs = os.path.join(args.workdir, "inputs")
    os.makedirs(inputs)
    workload.setup(args.seed, inputs)
    tracer = Tracer(memory=args.mode == "memory")
    if args.mode != "plain":
        tracer.install()
    setup_s = time.time() - args.spawned

    ref = Reference()
    # the first calls warm up; the median of the rest is the speed at set-up
    setup_scale = REFERENCE_S / statistics.median([ref.speed() for _ in range(15)][5:])

    passes = []
    peak_kib = None
    start = time.perf_counter()
    while args.mode != "setup":
        pass_dir = os.path.join(args.workdir, f"pass{len(passes)}")
        os.makedirs(pass_dir)
        os.chdir(pass_dir)
        workload.new_pass()
        tasks = workload.tasks()
        if tracer.memory:
            tracemalloc.start()
        tracer.reset()
        tracer.enabled = args.mode != "plain"
        records = []
        sampled = workload.scaled
        reference = [ref.speed()] if sampled else []
        last = time.perf_counter()
        for task in tasks:
            if sampled and time.perf_counter() - last >= REFERENCE_EVERY_S:
                reference.append(ref.speed())
                last = time.perf_counter()
            t0 = time.perf_counter()
            outcome = run_task(task)
            records.append((task, outcome, time.perf_counter() - t0))
        tracer.enabled = False
        if sampled:
            reference.append(ref.speed())
        if tracer.memory:
            tracemalloc.stop()
        failures = []
        for task, outcome, _ in records:
            problem = check_task(task, outcome)
            if problem:
                failures.append(f"{task.label}: {problem}")
        workload.report(records)
        passes.append({
            "latencies_s": [seconds for _, _, seconds in records],
            "scale": REFERENCE_S / _trimmed_mean(reference) if sampled else 1.0,
            "output_bytes": _tree_bytes(pass_dir),
            "attempted": len(records),
            "failures": failures,
            "info": workload.info,
            "trace": tracer.snapshot() if args.mode != "plain" else None,
        })
        os.chdir(args.workdir)
        shutil.rmtree(pass_dir)
        if len(passes) == 1:
            # the high-water mark after one pass; a later pass can raise it
            # through allocator reuse, and how many passes fit depends on speed
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > args.budget:
            break

    print(json.dumps({
        "setup_s": setup_s,
        "scaled_setup_s": setup_s * setup_scale,
        "peak_rss_mb": None if peak_kib is None else peak_kib / 1024.0,
        "passes": passes,
        "environment": _environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
