"""Benchmark for graphlift: end-to-end metrics per workload, or per-layer
metrics from a traced run.

Run from the root of a source checkout:

    python3 bench/run.py --workload lift_tower --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload cli_tour --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --seed 1 --seconds 30     # every workload in turn
    python3 bench/run.py --smoke

Each workload is a closed loop with one client: whole passes of a fixed task
list run back to back in a fresh child process (`child.py`), several children
in sequence, each one importing the package from `src/`. With `--trace 0` the
children run untouched and the metrics are the end-to-end ones, with times
scaled to the speed of a fixed piece of reference work (see child.py); a
few extra children only set up, for more samples of set-up time. With
`--trace 1` untraced children alternate with children that record per-layer
spans, then one child runs with memory tracing; the metrics are the
per-layer ones plus the tracing overhead. Metric names and units come from
BENCHMARK.json. The last line of standard output is one JSON object; the
lines before it repeat every metric by name and unit. `--smoke` runs every workload at a tiny size in both
modes and checks that every metric is present and no task failed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

from tracer import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
TIME_LIMIT_S = 170.0  # a run must end within 180 s
MIN_CHILDREN = 3  # children that run passes, at least
SETUP_CHILDREN = 6  # children that only set up, for more setup_s samples
BLAS_THREADS = "1"  # two would wait on both shared cores; see README.md

# The layers each workload's rationale says do most of its work (over half
# of the self time inside the package); the traced run reports whether it holds.
RATIONALE = {
    "lift_tower": ("lifting", "io"),
    "module_verdicts": ("modules",),
    "cli_tour": ("cli", "io", "families", "spectrum"),
}


class BenchError(RuntimeError):
    """A child process failed or overran; the run has no result."""


def _child_env(root: str) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


class Runner:
    """Starts child processes one after another under one overall deadline."""

    def __init__(self, root: str, workload: str, seed: int, tiny: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.tiny = tiny
        self.env = _child_env(root)
        self.workroot = os.path.join(root, ".bench_work", f"{workload}-{os.getpid()}")
        self.started = time.perf_counter()
        self.count = 0

    def child(self, mode: str, budget: float) -> dict:
        workdir = os.path.join(self.workroot, f"child{self.count}")
        self.count += 1
        os.makedirs(workdir)
        argv = [sys.executable, CHILD, "--workload", self.workload,
                "--seed", str(self.seed), "--mode", mode,
                "--budget", repr(max(budget, 0.0)), "--workdir", workdir]
        if self.tiny:
            argv.append("--tiny")
        left = TIME_LIMIT_S - (time.perf_counter() - self.started)
        argv += ["--spawned", repr(time.time())]
        try:
            proc = subprocess.run(argv, cwd=self.root, env=self.env, capture_output=True,
                                  text=True, timeout=max(left, 1.0))
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} child of {self.workload} overran the time limit")
        if proc.returncode != 0:
            raise BenchError(f"{mode} child of {self.workload} exited "
                             f"{proc.returncode}:\n{proc.stderr.strip()}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def rounds(self, modes: tuple[str, ...], seconds: float,
               min_rounds: int) -> dict[str, list[dict]]:
        """Rounds of one child per mode, in order, until `seconds` are spent;
        at least `min_rounds`. Alternating the modes exposes them to the same
        drift in machine speed."""
        out = {mode: [] for mode in modes}
        start = time.perf_counter()
        done = 0
        last = 0.0
        while True:
            if done >= min_rounds and time.perf_counter() - start + last > seconds:
                return out
            t0 = time.perf_counter()
            for i, mode in enumerate(modes):
                left = seconds - (time.perf_counter() - start)
                children_left = max(min_rounds - done, 1) * len(modes) - i
                out[mode].append(self.child(mode, left / children_left))
            done += 1
            last = time.perf_counter() - t0

    def close(self) -> None:
        shutil.rmtree(self.workroot, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.workroot))
        except OSError:
            pass  # another run still uses it, or it is already gone


def _passes(children: list[dict]) -> list[dict]:
    return [p for c in children for p in c["passes"]]


def _tally(children: list[dict]) -> tuple[int, list[str]]:
    passes = _passes(children)
    return (sum(p["attempted"] for p in passes),
            [f for p in passes for f in p["failures"]])


@functools.lru_cache(maxsize=None)
def _hd_weights(n: int, p: float, steps: int = 64) -> tuple[float, ...]:
    """Beta((n+1)p, (n+1)(1-p)) mass over each rank interval [i/n, (i+1)/n],
    integrated with the midpoint rule."""
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    weights = []
    for i in range(n):
        mids = ((i + (j + 0.5) / steps) / n for j in range(steps))
        weights.append(sum(
            math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
            for x in mids))
    total = sum(weights)
    return tuple(w / total for w in weights)


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the mean of all order
    statistics, weighted by a Beta distribution centred on rank p. A task list
    holds tasks of very different sizes, so a quantile read off one or two
    order statistics follows the noise of a single task; this one averages
    the neighbouring ranks."""
    return sum(w * x for w, x in zip(_hd_weights(len(values), p), sorted(values)))


def _scaled(p: dict, scaled: bool = True) -> list[float]:
    """A pass's task times, multiplied by its reference-speed scale."""
    k = p["scale"] if scaled else 1.0
    return [seconds * k for seconds in p["latencies_s"]]


def _wall_s(p: dict, scaled: bool = True) -> float:
    return sum(_scaled(p, scaled))


def end_to_end(children: list[dict]) -> dict:
    """Medians over the run's children or passes, of times scaled to the
    reference speed (see child.py; a pass of a workload that is not scaled
    has scale 1). Task percentiles are taken within each
    pass, whose fixed task list puts them at the same rank every time, and
    then their median over passes. The `raw.*` numbers are the same medians
    unscaled; they are printed, not declared."""
    passes = _passes(children)
    out = {
        "setup_s": statistics.median(c["scaled_setup_s"] for c in children),
        "raw.setup_s": statistics.median(c["setup_s"] for c in children),
        "peak_rss_mb": statistics.median(
            c["peak_rss_mb"] for c in children if c["passes"]),
        "output_mb": statistics.median(p["output_bytes"] for p in passes) / (1 << 20),
    }
    for prefix, scaled in (("", True), ("raw.", False)):
        out[prefix + "wall_s"] = statistics.median(_wall_s(p, scaled) for p in passes)
        for name, q in (("task_p50_ms", 0.5), ("task_p90_ms", 0.9)):
            out[prefix + name] = 1e3 * statistics.median(
                quantile(_scaled(p, scaled), q) for p in passes)
    return out


def per_layer(plain: list[dict], spans: list[dict], memory: list[dict]) -> tuple[dict, dict]:
    """Per-layer metrics (medians over traced passes) and layer self-time shares."""
    traced = _passes(spans)
    out = {}
    for key in traced[0]["trace"]:
        if key != "layer_self_s":
            out[key] = statistics.median(p["trace"][key] for p in traced)
    for key in ("io.peak_mb", "modules.peak_mb", "modules.indecomposable.peak_mb",
                "lifting.peak_mb"):
        out[key] = statistics.median(p["trace"][key] for p in _passes(memory))
    for key in traced[0]["info"]:
        out[key] = statistics.median(p["info"][key] for p in traced)
    out["trace.overhead_ratio"] = (
        statistics.median(_wall_s(p) for p in traced)
        / statistics.median(_wall_s(p) for p in _passes(plain))
    )
    layer = {name: sum(p["trace"]["layer_self_s"][name] for p in traced) for name in LAYERS}
    total = sum(layer.values()) or 1.0
    return out, {name: seconds / total for name, seconds in layer.items()}


def run_workload(root: str, workload: str, seed: int, seconds: float, trace: int,
                 tiny: bool = False) -> dict:
    runner = Runner(root, workload, seed, tiny)
    try:
        if trace:
            paired = runner.rounds(("plain", "spans"), seconds, 1)
            memory = runner.rounds(("memory",), 0.0, 1)["memory"]
            children = paired["plain"] + paired["spans"] + memory
            metrics, shares = per_layer(paired["plain"], paired["spans"], memory)
        else:
            t0 = time.perf_counter()
            children = [runner.child("setup", 0.0) for _ in range(SETUP_CHILDREN)]
            seconds -= time.perf_counter() - t0
            children += runner.rounds(("plain",), seconds, MIN_CHILDREN)["plain"]
            metrics, shares = end_to_end(children), None
    finally:
        runner.close()
    attempted, failures = _tally(children)
    return {
        "metrics": metrics,
        "shares": shares,
        "attempted": attempted,
        "failures": failures,
        "children": len(children),
        "passes": len(_passes(children)),
        "environment": children[0]["environment"],
    }


def _declared(spec: dict, trace: int) -> list[dict]:
    return spec["per_layer"] if trace else spec["end_to_end"]


def report(spec: dict, workload: str, seed: int, trace: int, result: dict) -> dict:
    """Print every declared metric by name and unit; return the final JSON
    object. A declared metric the run did not produce is a KeyError."""
    attempted, failures = result["attempted"], result["failures"]
    print(f"workload {workload}  seed {seed}  trace {trace}  "
          f"children {result['children']}  passes {result['passes']}  tasks {attempted}")
    metrics = {}
    for entry in _declared(spec, trace):
        value = result["metrics"][entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"  {entry['name']:34s} {value:.6g} {entry['unit']}")
    # printed for information, not declared: see bench/README.md
    if not trace:
        for name, value in result["metrics"].items():
            if name.startswith("raw.") or name == "task_p50_ms":
                unit = "ms" if name.endswith("_ms") else "s"
                print(f"  {name:34s} {value:.6g} {unit}")
    print(f"  {'fail_ratio':34s} {len(failures) / attempted:.6g} ratio "
          f"({len(failures)} of {attempted} tasks)")
    if result["shares"] is not None:
        shares = result["shares"]
        print("  layer shares of self time: " + ", ".join(
            f"{name} {shares[name]:.3f}" for name in LAYERS))
        expected = RATIONALE[workload]
        held = sum(shares[name] for name in expected)
        verdict = "holds" if held > 0.5 else "DOES NOT HOLD"
        print(f"  rationale: {'+'.join(expected)} = {held:.3f} of self time "
              f"(stated: most): {verdict}")
    env = result["environment"]
    print(f"  environment: nproc {env['nproc']}, python {env['python']}, "
          f"numpy {env['numpy']}, blas {env['blas']}, "
          f"OPENBLAS_NUM_THREADS={env['blas_threads']}")
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def smoke(root: str, spec: dict) -> int:
    """Every workload at a tiny size, both modes: every declared metric is a
    finite number (end-to-end ones above 0), and no task failed."""
    problems = []
    for entry in spec["workloads"]:
        for trace in (0, 1):
            result = run_workload(root, entry["name"], 0, 1.0, trace, tiny=True)
            doc = report(spec, entry["name"], 0, trace, result)
            for name, metric in doc["metrics"].items():
                value = metric["value"]
                if not math.isfinite(value) or (not trace and value <= 0):
                    problems.append(f"{entry['name']} trace {trace}: {name} = {value}")
            if doc["failed"]:
                problems.append(f"{entry['name']} trace {trace}: {doc['failed']} failed")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else "smoke: FAILED")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload; all of them in turn if omitted")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at a tiny size and check the metrics")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "graphlift", "__init__.py")):
        print("bench: run from the root of a graphlift checkout (no src/graphlift here)",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    if args.smoke:
        return smoke(root, spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    for name in [args.workload] if args.workload else names:
        try:
            result = run_workload(root, name, args.seed, args.seconds, args.trace)
        except BenchError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(report(spec, name, args.seed, args.trace, result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
