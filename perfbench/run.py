"""Benchmark of clearnet: the shock identity, the default cascade and the CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload full-shock-sweep --seed 1 --seconds 20 --trace 0

Each workload runs in fresh interpreters started from here (``worker.py``),
with OpenBLAS and OpenMP pinned to one thread. With ``--trace 0`` the run
times set-up in several fresh processes and then measures whole passes of
the workload's op list for ``--seconds``; it prints the end-to-end metrics.
With ``--trace 1`` it runs one untraced and one traced pass in-process and
prints the per-layer metrics plus the tracing overhead. The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``. The package is imported from ``src/`` of the checkout; without
it the run exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKLOADS = ("full-shock-sweep", "contagion-clear", "cli-reports")
SETUP_SAMPLES = 3  # fresh-process set-ups per run, the measured worker's included
IMPORT_SAMPLES = 3
DEADLINE_S = 170.0  # a run that is not done by then is stopped and gives no result
STARTED = time.monotonic()

# Every per-layer figure the traced run measures, in report order; all are
# printed by name and kept in the results file. The JSON line carries those
# that BENCHMARK.json lists under "per_layer".
LAYERS = {"io_cli.import_s": "s", **tracer.UNITS, "trace.overhead_pct": "%"}


class BenchmarkError(Exception):
    """The run cannot produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def reported(kind: str) -> dict:
    """Name and unit of each metric that BENCHMARK.json lists under
    ``kind`` ("end_to_end" or "per_layer")."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def time_left() -> float:
    left = DEADLINE_S - (time.monotonic() - STARTED)
    if left <= 0:
        raise BenchmarkError(f"out of time after {DEADLINE_S:.0f} s")
    return left


def run_worker(args: list[str]) -> tuple[float, dict]:
    """Run ``worker.py``; return the seconds from its start to its
    ``ready_at`` and its JSON line."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    t0 = time.monotonic()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
                          text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=time_left())
        finally:
            if proc.poll() is None:
                proc.terminate()  # the worker then stops its own CLI child
                try:
                    proc.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    proc.kill()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker {' '.join(args)} exited {proc.returncode}")
    result = json.loads(lines[-1])
    return result["ready_at"] - t0, result


def import_clearnet() -> float:
    """Wall time of ``python -c "import clearnet"`` in a fresh process."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import clearnet"], env=child_env(),
                   cwd=ROOT, check=True, timeout=time_left())
    return time.perf_counter() - t0


def ops_per_s(result: dict) -> float:
    """Median over passes of ops completed / summed op wall time, so that a
    burst of host load in one pass does not move the figure."""
    passes = [p for p in result["op_times"] if p]
    if not passes:
        raise BenchmarkError("no op completed")
    return statistics.median(len(p) / sum(p) for p in passes)


def report_errors(result: dict) -> None:
    for error in result["errors"]:
        print(error, file=sys.stderr)


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    import_clearnet()  # writes the bytecode cache before any set-up is timed
    base = ["--workload", workload, "--seed", str(seed)]
    setups = [run_worker(base + ["--setup-only"])[0] for _ in range(SETUP_SAMPLES - 1)]
    setup, result = run_worker(base + ["--seconds", str(seconds)])
    setups.append(setup)
    report_errors(result)
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"run-{workload}-seed{seed}.json", "w") as f:
        json.dump({"workload": workload, "seed": seed, "setups": setups, **result}, f)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": ops_per_s(result),
        "op_p50_s": statistics.median(t for p in result["op_times"] for t in p),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return result, {k: (metrics[k], unit) for k, unit in reported("end_to_end").items()}


def traced(workload: str, seed: int) -> tuple[dict, dict]:
    base = ["--workload", workload, "--seed", str(seed), "--inprocess"]
    _, plain = run_worker(base)
    _, result = run_worker(base + ["--trace", "1"])
    report_errors(result)
    layers = dict(result["layers"])
    layers["io_cli.import_s"] = statistics.median(
        import_clearnet() for _ in range(IMPORT_SAMPLES))
    layers["trace.overhead_pct"] = 100.0 * (ops_per_s(plain) / ops_per_s(result) - 1.0)
    if result["missing"]:
        print(f"not in the package, reported as 0: {result['missing']}", file=sys.stderr)
    RESULTS.mkdir(exist_ok=True)
    with open(RESULTS / f"layers-{workload}-seed{seed}.json", "w") as f:
        json.dump({"workload": workload, "seed": seed, "layers": layers}, f, indent=1)
    reached = {k: v for k, v in layers.items()
               if k in LAYERS and (not k.endswith(".self_s") or
                                   layers[k.replace(".self_s", ".calls")] > 0)}
    for name, unit in LAYERS.items():
        shown = f"{reached[name]:.6g} {unit}" if name in reached else "not reached"
        print(f"{workload}/{name} {shown}")
    return result, {k: (layers[k], unit) for k, unit in reported("per_layer").items()}


def main() -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # run the finally blocks
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "clearnet" / "__init__.py").is_file():
        print(f"no clearnet package under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            result, metrics = traced(args.workload, args.seed)
        else:
            result, metrics = end_to_end(args.workload, args.seed, args.seconds)
            for name, (value, unit) in metrics.items():
                print(f"{args.workload}/{name} {value:.6g} {unit}")
    except (BenchmarkError, subprocess.SubprocessError, OSError, LookupError,
            ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(f"{args.workload}/attempted {result['attempted']}")
    print(f"{args.workload}/failed {result['failed']}")
    print(json.dumps({
        "correct": result["wrong"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
