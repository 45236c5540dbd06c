"""One workload in one fresh interpreter; started by ``run.py``.

The worker imports clearnet, builds the workload's seeded inputs and runs one
untimed warm-up op. The ``time.monotonic()`` reading at that point is its
``ready_at``, up to which ``run.py`` times set-up. It then runs whole passes
over the workload's fixed op list, keeping each distinct output of each op,
and reads its peak resident set. Only after that does it check the outputs
against ``checks.py``, so that neither the set-up time nor the peak includes
the checks' reference arrays. It prints one JSON line with ``ready_at``, the
op times of each pass, counts and the peak resident set.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import clearnet as cn

import checks
from tracer import WARMUP, Tracer

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"


def derived_seed(seed: int, *stream: int) -> int:
    """A 32-bit seed for clearnet's generator, one stream per input."""
    return int(np.random.SeedSequence([seed, *stream]).generate_state(1)[0])


class Workload:
    """Seeded inputs, a fixed op list, and a check for each op's output.

    ``run`` returns the output as a dict of arrays and numbers, and
    ``check`` judges such a dict; the worker calls ``check`` once per
    distinct output of an op, after the measurement."""

    MIN_PASSES = 1
    SAME_OUTPUT_EACH_PASS = False  # whether an op's output must repeat byte for byte

    def __init__(self, seed: int, inprocess: bool) -> None:
        self.seed = seed
        self.inprocess = inprocess

    def cleanup(self) -> None:
        """Remove whatever ``setup`` wrote to disk."""


class FullShockSweep(Workload):
    """The paper's identity: clearing under the full-default shock against
    the generalized Katz solve, on a sparse and a denser network."""

    BANKS = 1500
    DENSITIES = (8 / 1500, 0.03)
    R_GRID = (0.5, 0.9)
    M_GRID = (0.3, 0.7)

    def setup(self) -> None:
        self.systems = [
            cn.generate_random_system(derived_seed(self.seed, k), self.BANKS, density)
            for k, density in enumerate(self.DENSITIES)
        ]
        self.ops = [(k, r, m) for k in range(len(self.systems))
                    for r in self.R_GRID for m in self.M_GRID]

    @functools.cached_property
    def claims(self) -> list:
        return [checks.claims(s.liabilities) for s in self.systems]

    def run(self, op) -> dict:
        k, r, m = op
        system = self.systems[k]
        scenario = cn.full_default_shock(system, m)
        solution = cn.fictitious_default_sequence(
            cn.shocked_system(system, scenario), cn.ClearingParams(r=r)
        )
        katz = cn.generalized_katz(
            cn.relative_claims(system).matrix, r, cn.beta_vector(system, r, m), m=m
        )
        return {"assets": scenario.post_shock_assets, "payments": solution.payments,
                "sigma": katz.sigma, "iterations": solution.iterations,
                "flags": solution.defaults.flags}

    def check(self, op, out: dict) -> None:
        k, r, m = op
        l, C = self.claims[k]
        checks.check_close(
            "post-shock assets", out["assets"],
            checks.full_shock_assets(l, C, self.systems[k].pre_shock_assets, m), l,
        )
        checks.check_full_shock(
            l, checks.katz_reference(l, C, r, m), out["payments"], out["sigma"],
            out["iterations"], out["flags"],
        )


class ContagionClear(Workload):
    """Partial shocks: the multi-round default cascade with small blocks."""

    BANKS = 2000
    DENSITY = 8 / 2000
    FRACTIONS = tuple(float(f) for f in np.linspace(0.005, 0.30, 16))
    R_GRID = (0.5, 0.9)
    CUT = (0.0, 0.3)  # hit banks keep this share of their assets

    def setup(self) -> None:
        self.system = cn.generate_random_system(
            derived_seed(self.seed, 0), self.BANKS, self.DENSITY)
        self.ops = []
        for i, fraction in enumerate(self.FRACTIONS):
            rng = np.random.default_rng([self.seed, 1, i])
            hit = rng.choice(self.BANKS, size=max(1, round(fraction * self.BANKS)),
                             replace=False)
            assets = self.system.external_assets.copy()
            assets[hit] *= rng.uniform(*self.CUT, size=hit.size)
            self.ops.append((self.system.with_external_assets(assets),
                             self.R_GRID[i % len(self.R_GRID)]))

    @functools.cached_property
    def claims(self) -> tuple:
        return checks.claims(self.system.liabilities)

    def run(self, op) -> dict:
        shocked, r = op
        solution = cn.fictitious_default_sequence(shocked, cn.ClearingParams(r=r))
        return {"payments": solution.payments, "flags": solution.defaults.flags,
                "history": [d.flags for d in solution.default_history]}

    def check(self, op, out: dict) -> None:
        shocked, r = op
        l, C = self.claims
        checks.check_clearing(l, C, shocked.external_assets, r,
                              out["payments"], out["flags"], out["history"])


class CliReports(Workload):
    """``clearnet`` subcommands on a seeded JSON document with a partial
    shock; each op is one CLI invocation in a child process, or one
    ``cli_main`` call with stdout captured when ``inprocess`` is set."""

    BANKS = 400
    DENSITY = 8 / 400
    HIT_FRACTION = 0.1
    R, M = 0.8, 0.5
    COMMANDS = (
        ("clear", "--r", "0.8"),
        ("shock", "--kind", "full", "--m", "0.5", "--r", "0.8"),
        ("shock", "--kind", "relaxed", "--r", "0.8"),
        ("verify", "--r", "0.8", "--m", "0.5"),
        ("katz", "--r", "0.8", "--m", "0.5"),
        ("spectral", "--r", "1.0"),
    )
    MIN_PASSES = 2  # so every command's output is compared with an earlier one
    SAME_OUTPUT_EACH_PASS = True  # the package README promises byte-identical reports

    def __init__(self, seed: int, inprocess: bool) -> None:
        super().__init__(seed, inprocess)
        self.workdir = RESULTS / f"work-{os.getpid()}"

    def setup(self) -> None:
        self.system = cn.generate_random_system(
            derived_seed(self.seed, 0), self.BANKS, self.DENSITY)
        rng = np.random.default_rng([self.seed, 1])
        hit = rng.choice(self.BANKS, size=round(self.HIT_FRACTION * self.BANKS), replace=False)
        self.assets = self.system.external_assets.copy()
        self.assets[hit] *= rng.uniform(0.0, 0.3, size=hit.size)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.document = self.workdir / "system.json"
        self.document.write_text(json.dumps({
            "liabilities": self.system.liabilities.tolist(),
            "pre_shock_assets": self.system.pre_shock_assets.tolist(),
            "external_assets": self.assets.tolist(),
        }))
        self.ops = list(self.COMMANDS)

    @functools.cached_property
    def claims(self) -> tuple:
        return checks.claims(self.system.liabilities)

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def run(self, command) -> dict:
        argv = [*command, "--input", str(self.document)]
        if self.inprocess:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cn.cli_main(argv)
            return {"code": code, "stdout": out.getvalue().encode()}
        proc = subprocess.run([sys.executable, "-m", "clearnet", *argv],
                              capture_output=True, cwd=ROOT)
        return {"code": proc.returncode, "stdout": proc.stdout}

    def check(self, command, out: dict) -> None:
        checks.require(out["code"] == 0, f"{' '.join(command)} exited {out['code']}")
        report = json.loads(out["stdout"])
        l, C = self.claims
        name = command[0] if command[0] != "shock" else f"shock-{command[2]}"
        if name == "clear":
            clearing = report["clearing"]
            checks.check_clearing(l, C, self.assets, self.R,
                                  clearing["payments"], clearing["defaults"])
        elif name.startswith("shock"):
            assets = np.asarray(report["scenario"]["post_shock_assets"], dtype=float)
            if name == "shock-full":
                checks.check_close(
                    "post-shock assets", assets,
                    checks.full_shock_assets(l, C, self.system.pre_shock_assets, self.M), l)
            clearing = report["clearing"]
            checks.check_clearing(l, C, assets, self.R,
                                  clearing["payments"], clearing["defaults"])
        elif name == "katz":
            checks.check_close("sigma", report["sigma"],
                               checks.katz_reference(l, C, self.R, self.M), l)
        elif name == "verify":
            checks.require(report["passed"] is True, "verify did not pass")
        elif name == "spectral":
            spectral = report["spectral"]
            checks.check_spectral(C, spectral["radius_estimate"],
                                  spectral["collatz_wielandt_lower"])


WORKLOADS = {
    "full-shock-sweep": FullShockSweep,
    "contagion-clear": ContagionClear,
    "cli-reports": CliReports,
}


def digest(out: dict) -> str:
    """A fingerprint of every byte of an op's output."""
    h = hashlib.sha256()
    for name, value in out.items():
        h.update(name.encode())
        h.update(np.asarray(value).tobytes())
    return h.hexdigest()


def measure(workload, seconds: float, tracer, errors: list) -> dict:
    """Whole passes over the op list until ``seconds`` have passed. Returns
    every completed op as (pass, op index, seconds, output key) in run
    order, and each distinct output under its key (op index, digest)."""
    done: list = []
    outputs: dict = {}
    attempted = raised = passes = 0
    start = time.perf_counter()
    while passes < workload.MIN_PASSES or time.perf_counter() - start < seconds:
        for i, op in enumerate(workload.ops):
            if tracer:
                tracer.op = f"{passes}:{i}"
            attempted += 1
            t0 = time.perf_counter()
            try:
                out = workload.run(op)
            except Exception:  # the program refused the op: count it as failed
                errors.append(traceback.format_exc(limit=3))
                raised += 1
                continue
            op_seconds = time.perf_counter() - t0
            key = (i, digest(out))
            outputs.setdefault(key, out)
            done.append((passes, i, op_seconds, key))
        passes += 1
    return {"passes": passes, "attempted": attempted, "raised": raised,
            "done": done, "outputs": outputs}


def verify(workload, done: list, outputs: dict, errors: list) -> set:
    """Check each distinct output once; return the positions in ``done`` of
    the ops whose output is wrong."""
    wrong_keys = set()
    for key, out in outputs.items():
        try:
            workload.check(workload.ops[key[0]], out)
        except (checks.CheckFailed, AttributeError, LookupError, TypeError, ValueError) as exc:
            # an output the checks cannot read (say, stdout that is not JSON) is wrong too
            errors.append(f"check failed: {exc!r}")
            wrong_keys.add(key)
    wrong = {n for n, (_, _, _, key) in enumerate(done) if key in wrong_keys}
    if workload.SAME_OUTPUT_EACH_PASS:
        previous: dict = {}
        for n, (_, i, _, key) in enumerate(done):
            if i in previous and key != previous[i]:
                errors.append(f"check failed: op {i} output differs from the previous run")
                wrong.add(n)
            previous[i] = key
    return wrong


def main() -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep starting passes until this much time has passed "
                        "(at least MIN_PASSES are made)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inprocess", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    workload = WORKLOADS[args.workload](args.seed, args.inprocess)
    errors: list = []
    try:
        workload.setup()
        if tracer:
            tracer.op = WARMUP
        try:  # untimed and unchecked: the same op is checked in every pass
            workload.run(workload.ops[0])
        except Exception:
            errors.append(traceback.format_exc(limit=3))
        ready_at = time.monotonic()
        if args.setup_only:
            print(json.dumps({"ready_at": ready_at}), flush=True)
            return 0
        run = measure(workload, args.seconds, tracer, errors)
    finally:
        workload.cleanup()

    who = resource.RUSAGE_CHILDREN if (
        args.workload == "cli-reports" and not args.inprocess) else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    wrong = verify(workload, run["done"], run["outputs"], errors)
    op_times: list = [[] for _ in range(run["passes"])]
    for n, (p, _, seconds, _) in enumerate(run["done"]):
        if n not in wrong:
            op_times[p].append(seconds)
    result = {
        "ready_at": ready_at,
        "op_times": op_times,
        "attempted": run["attempted"],
        "failed": run["raised"] + len(wrong),
        "wrong": len(wrong),
        "errors": errors[:5],
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer:
        op_ids = {f"{p}:{i}" for p in range(run["passes"]) for i in range(len(workload.ops))}
        result["layers"] = tracer.metrics(op_ids)
        result["missing"] = tracer.missing
        RESULTS.mkdir(exist_ok=True)
        tracer.dump(RESULTS / f"spans-{args.workload}-seed{args.seed}.json")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
