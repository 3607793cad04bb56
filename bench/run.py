"""The nehari2d benchmark: end-to-end solves, checked, with optional tracing.

    python3 bench/run.py                                   # all workloads
    python3 bench/run.py --workload competitive-asym-31 --seed 3 --seconds 35 --trace 0
    python3 bench/run.py --workload all --trace 1          # per-layer metrics

Run from anywhere; the package is taken from `src/` next to this
directory, never from an installed copy.  Workloads run one at a time in
a closed loop with a single client: each solve starts when the previous
one has finished.  Every solve runs in a fresh child process (child.py);
this process only generates configs, checks outputs and reports.

With `--trace 0` the metrics are solve_s, setup_s and peak_rss_mb, and
fail_frac is printed with them.  solve_s and setup_s are wall times
scaled to a reference host speed by the speed probe that ran during
them (child.SpeedProbe, `scaled`); the raw wall times are printed too.
With `--trace 1` one untraced and one traced solve are made, and the
metrics are the per-layer ones (see tracer.PER_LAYER), plus the tracing
overhead.
The last stdout line is one JSON object: correct, attempted, failed,
metrics.  Workloads and references are in workloads.py; README.md has
the reasoning.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"

# fresh set-up processes per run; the solve process adds one more sample
SETUP_SAMPLES = 4
# every run must end within this many seconds of starting
RUN_LIMIT_S = 170.0
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
# SpeedProbe kernel time that defines the reference host speed: about
# the time of either kernel on the 2-core Xeon VM the benchmark was tuned on
PROBE_REF_S = 4.0e-4
ENERGY_REF_RTOL = 1e-10
RELOAD_RTOL = 1e-12
RESIDUAL_TOL = 1e-8

END_TO_END = [("solve_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


class SetupFailed(RuntimeError):
    """The package could not be imported or set up: no result is printed."""


def conditions() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "thread_env": THREAD_ENV,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args: list[str], deadline: float) -> tuple[dict | None, str]:
    """Run child.py; returns (its JSON result or None, error text)."""
    timeout = max(deadline - time.monotonic(), 1.0)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            env=child_env(), cwd=ROOT, capture_output=True, text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return None, f"child timed out after {timeout:.0f} s"
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        return None, f"child exited with status {proc.returncode}"
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), ""
    except (ValueError, IndexError):
        return None, "child printed no result"


def check_solve(wl, seed: int, rec: dict) -> list[str]:
    """Every correctness check on one solve; returns the failures."""
    bad = []
    if rec["rc"] != 0:
        bad.append(f"exit status {rec['rc']}")
    rows = rec["rows"]
    if len(rows) != len(wl.reference_energies):
        return bad + [f"{len(rows)} CSV rows, expected {len(wl.reference_energies)}"]
    for k, (row, ref) in enumerate(zip(rows, wl.reference_energies)):
        tag = f"row {k} (beta={row['beta']})"
        if row["status"] != "ok":
            bad.append(f"{tag}: status {row['status']}")
            continue
        energy = float(row["energy"])
        if seed == wl.reference_seed and not abs(energy - ref) <= ENERGY_REF_RTOL * abs(ref):
            bad.append(f"{tag}: energy {energy!r} != reference {ref!r}")
        if not float(row["euler_res"]) <= RESIDUAL_TOL:
            bad.append(f"{tag}: euler_res {row['euler_res']}")
        for key in ("nehari_r1", "nehari_r2"):
            if not abs(float(row[key])) <= RESIDUAL_TOL:
                bad.append(f"{tag}: {key} {row[key]}")
        for key in ("fully_nontrivial", "nonnegative"):
            if row[key] != "true":
                bad.append(f"{tag}: {key} is {row[key]}")
    reloaded = rec["reloaded_energy"]
    if reloaded is not None:
        energy = float(rows[0]["energy"])
        if not abs(reloaded - energy) <= RELOAD_RTOL * abs(energy):
            bad.append(f"field round trip gives energy {reloaded!r}, CSV has {energy!r}")
    return bad


def scaled(seconds: float, probe_s: float | None) -> float:
    """A wall time at the reference host speed.

    The wall time is scaled by PROBE_REF_S over the probe's mean time
    during it: a solve made while the host ran the probe 1.5x slower
    counts 1/1.5 of its wall time.  Without probe samples (shorter than
    one probe interval) the wall time is used.
    """
    return seconds * PROBE_REF_S / probe_s if probe_s else seconds


def adjusted(rec: dict) -> float:
    """The scaled time of one solve record."""
    return scaled(rec["solve_s"], rec.get("probe_s"))


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    pct = math.floor(100.0 * (n - 10) / n)
    return pct, statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


class Run:
    """Attempts, failures and printed lines of one workload run."""

    def __init__(self, wl, seed: int, deadline: float):
        self.wl, self.seed, self.deadline = wl, seed, deadline
        self.attempted = 0
        self.failed = 0
        self.out = OUT_ROOT / f"{wl.name}-seed{seed}-pid{os.getpid()}"
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)

    def close(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def setup_probes(self, count: int) -> tuple[list[tuple], float, dict]:
        """Fresh set-up processes: (wall time, probe time) of each, mu1
        and the versions."""
        cfg = self.out / "setup.cfg"
        cfg.write_text(self.wl.config(self.seed, mu1=0.0))
        setups, mu1, versions = [], None, {}
        for _ in range(count):
            res, err = run_child(["setup", str(cfg), str(self.out)], self.deadline)
            if res is None:
                raise SetupFailed(f"set-up failed: {err}")
            if not Path(res["package"]).is_relative_to(SRC):
                raise SetupFailed(f"nehari2d imported from {res['package']}, not {SRC}")
            setups.append((res["setup_s"], res["setup_probe_s"]))
            mu1, versions = res["mu1"], res["versions"]
        return setups, mu1, versions

    def solves(self, mode: str, mu1: float, seconds: float, tag: str,
               expect_hashes: dict | None = None):
        """One child making solves; returns (result or None, records).

        Every solve must write the same bytes as the first one, or as
        `expect_hashes` when given.
        """
        cfg = self.out / "run.cfg"
        cfg.write_text(self.wl.config(self.seed, mu1))
        budget = self.deadline - time.monotonic()
        res, err = run_child(
            [mode, str(cfg), str(self.out / tag), "--command", self.wl.command,
             "--seconds", repr(seconds), "--budget", repr(budget)],
            self.deadline,
        )
        if res is None:
            self.attempted += 1
            self.failed += 1
            print(f"{self.wl.name} {tag}: FAILED: {err}")
            return None, []
        ref_hashes = expect_hashes
        for k, rec in enumerate(res["solves"]):
            bad = check_solve(self.wl, self.seed, rec)
            if ref_hashes is None:
                ref_hashes = rec["hashes"]
            elif rec["hashes"] != ref_hashes:
                bad.append("output files differ from "
                           + ("the untraced run" if expect_hashes else "the first solve"))
            self.attempted += 1
            self.failed += bool(bad)
            energies = ", ".join(r["energy"] for r in rec["rows"])
            verdict = "ok" if not bad else "FAILED: " + "; ".join(bad)
            probe = (f"{rec['probe_s'] * 1e3:.4f} ms over {rec['probe_n']}"
                     if rec.get("probe_s") else "no samples")
            print(f"{self.wl.name} {tag} solve {k}: {adjusted(rec):.3f} s adjusted, "
                  f"{rec['solve_s']:.3f} s wall (cpu {rec['cpu_s']:.3f} s, "
                  f"probe {probe}), "
                  f"seed {self.seed}, energies [{energies}], {verdict}")
        return res, res["solves"]


def run_untraced(wl, seed: int, seconds: float, deadline: float):
    run = Run(wl, seed, deadline)
    try:
        setups, mu1, versions = run.setup_probes(SETUP_SAMPLES)
        res, recs = run.solves("solve", mu1, seconds, "untraced")
    finally:
        run.close()
    metrics = {}
    if recs:
        solve_times = [adjusted(r) for r in recs]
        wall_times = [r["solve_s"] for r in recs]
        setups.append((res["setup_s"], res["setup_probe_s"]))
        setup_times = [scaled(*pair) for pair in setups]
        metrics = {
            "solve_s": statistics.median(solve_times),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        tail = tail_percentile(solve_times)
        tail_text = (f"p{tail[0]} {tail[1]:.4f} s" if tail
                     else "no tail percentile (needs 11 samples)")
        print(f"{wl.name}: solve_s median over {len(solve_times)} solves, "
              f"{tail_text}; wall-time median {statistics.median(wall_times):.4f} s; "
              f"setup_s median over {len(setup_times)} fresh processes, "
              f"wall-time median {statistics.median(w for w, _ in setups):.4f} s")
    return run, metrics, versions


def run_traced(wl, seed: int, deadline: float):
    run = Run(wl, seed, deadline)
    metrics, traced = {}, []
    try:
        _times, mu1, versions = run.setup_probes(1)
        _res, plain = run.solves("solve", mu1, 0.0, "untraced")
        if plain:
            _res, traced = run.solves("trace", mu1, 0.0, "traced",
                                      expect_hashes=plain[0]["hashes"])
        if plain and traced:
            spans = tracer.Spans(run.out / "traced" / "spans.npz")
            iters = sum(int(r["iterations"]) for r in traced[0]["rows"])
            overhead = adjusted(traced[0]) / adjusted(plain[0])
            metrics = tracer.layer_metrics(spans, iters, overhead)
    finally:
        run.close()
    return run, metrics, versions


def report(name: str, metrics: dict, units: dict) -> dict:
    out = {}
    for key, value in metrics.items():
        print(f"{name} {key} = {value:.6g} {units[key]}")
        out[key] = {"value": value, "unit": units[key]}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="nehari2d benchmark")
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=None,
                    help="solver.seed (default: each workload's reference seed)")
    ap.add_argument("--seconds", type=float, default=35.0,
                    help="time for the solves of a run; at least one is made")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "nehari2d" / "__init__.py").is_file():
        print(f"no nehari2d package under {SRC}", file=sys.stderr)
        return 2
    if args.seed is not None and args.seed < 0:
        ap.error("--seed must be nonnegative")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    units = dict(tracer.PER_LAYER) if args.trace else dict(END_TO_END)
    attempted = failed = 0
    metrics: dict = {}
    run_conditions = conditions()
    for name in names:
        wl = WORKLOADS[name]
        seed = wl.reference_seed if args.seed is None else args.seed
        deadline = time.monotonic() + RUN_LIMIT_S
        try:
            if args.trace:
                run, values, versions = run_traced(wl, seed, deadline)
            else:
                run, values, versions = run_untraced(wl, seed, args.seconds, deadline)
        except SetupFailed as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 2
        run_conditions.update(versions)
        attempted += run.attempted
        failed += run.failed
        print(f"{name}: fail_frac = {run.failed}/{run.attempted} = "
              f"{run.failed / run.attempted:.6g} ratio")
        if not values:
            continue
        prefix = "" if len(names) == 1 else f"{name}."
        for key, entry in report(name, values, units).items():
            metrics[prefix + key] = entry
    print("conditions: " + json.dumps(run_conditions, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
