"""One fresh benchmark process: set-up, untraced solves, or a traced solve.

    python3 child.py setup CONFIG OUT
    python3 child.py solve CONFIG OUT --command CMD --seconds S --budget B
    python3 child.py trace CONFIG OUT --command CMD

Set-up is `import nehari2d`, parsing the config, building the grid and
both families, and the first `conservative_mu1(grid)` (the principal
eigenpair).  It is timed here, in a fresh process, because the eigenpair
and Poisson caches are module globals that stay warm afterwards.

`solve` runs `nehari2d.cli.run` in a closed loop, one command after the
other: once, and then again as long as the next solve, taking as long
as the last one, would end within `--seconds` of the first start and
within `--budget` of the process start.  `trace` wraps the layers before
the first call, runs one command and writes the spans to OUT/spans.npz.
During set-up and during every solve a SpeedProbe times a fixed kernel
in this process, so each time carries the host's speed over the same
seconds on the same CPU (see SpeedProbe).
After the timed part, both gather what the caller checks: the CSV rows,
output file hashes, and the energy recomputed from the field dumps.

The last stdout line is one JSON object.  Package modules are looked up
as attributes at call time, so the tracer's rebinding takes effect.
"""

import time

_T0 = time.perf_counter()   # before anything heavy is imported

import argparse
import csv
import hashlib
import json
import resource
import signal
import sys
from pathlib import Path


def setup(config_path: Path):
    """Returns (seconds, cfg, grid, families, mu1) for the timed set-up."""
    t0 = time.perf_counter()
    import nehari2d.cli
    import nehari2d.grid
    import nehari2d.solvers

    cfg = nehari2d.cli.parse_config(config_path.read_text())
    grid = nehari2d.grid.build_grid(cfg.grid)
    fams = (cfg.family1.build(), cfg.family2.build())
    mu1 = nehari2d.solvers.conservative_mu1(grid)
    return time.perf_counter() - t0, cfg, grid, fams, mu1


def python_kernel() -> int:
    """Pure-Python arithmetic, about 0.4 ms; set-up runs before numpy is imported."""
    s = 0
    for i in range(4000):
        s += (i * 7) % 13
    return s


def numpy_kernel() -> float:
    """Small numpy arithmetic on a 32x32 array plus Python-level indexing,
    about 0.4 ms: a mix like the solver's."""
    import numpy as np

    a = x = np.linspace(0.1, 1.0, 1024).reshape(32, 32)
    s = 0.0
    for i in range(40):
        x = np.sqrt(x * a + 1.0) - 0.5 * a
        s += float(x[i % 32, 3])
    return s


class SpeedProbe:
    """Times `kernel` every INTERVAL_S of wall time, in this process.

    The host's speed drifts: a shared core runs the same code up to 2x
    slower for seconds to minutes at a time.  The kernel runs from a
    SIGALRM handler, between the program's bytecodes, so it sees the
    same core at the same moments as the code being timed.  Its mean
    time over an interval measures the host's speed during it; run.py
    scales set-up and solve times by it.  The kernels read no program
    state and cost about 2% of the time measured.
    """

    INTERVAL_S = 0.02
    MIN_SAMPLES = 25

    def __init__(self, kernel):
        self._kernel = kernel
        self.samples: list[float] = []

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - t0)

    def start(self) -> None:
        self.samples = []
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed_since(self, first: int) -> dict:
        """Sample count and trimmed mean time from sample `first` on.

        A solve too short for MIN_SAMPLES of its own borrows the latest
        samples before it.
        """
        start = max(0, min(first, len(self.samples) - self.MIN_SAMPLES))
        ordered = sorted(self.samples[start:])
        cut = len(ordered) // 10     # drop preempted and odd-fast samples
        kept = ordered[cut:len(ordered) - cut]
        return {
            "probe_n": len(ordered),
            "probe_s": sum(kept) / len(kept) if kept else None,
        }


def solve_once(command: str, cfg, out: Path) -> dict:
    import nehari2d.cli

    t0, c0 = time.perf_counter(), time.process_time()
    rc = nehari2d.cli.run(command, cfg, out)
    return {
        "rc": rc,
        "solve_s": time.perf_counter() - t0,
        "cpu_s": time.process_time() - c0,
        "out": str(out),
    }


def describe_outputs(record: dict, cfg, grid, fams) -> None:
    """Adds CSV rows, file hashes and the field round-trip energy."""
    import nehari2d

    out = Path(record["out"])
    files = sorted(p for p in out.iterdir() if p.suffix in (".csv", ".field"))
    record["hashes"] = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files
    }
    rows = []
    for p in files:
        if p.suffix == ".csv":
            with open(p) as fh:
                rows += list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
    record["rows"] = rows
    record["reloaded_energy"] = None
    if (out / "u1.field").exists():
        pair = nehari2d.StatePair(
            nehari2d.load_field(out / "u1.field"), nehari2d.load_field(out / "u2.field")
        )
        record["reloaded_energy"] = nehari2d.total_energy(
            pair, cfg.params, fams[0], fams[1], grid
        )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("setup", "solve", "trace"))
    ap.add_argument("config", type=Path)
    ap.add_argument("out", type=Path)
    ap.add_argument("--command", default="solve-system")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--budget", type=float, default=float("inf"))
    args = ap.parse_args(argv)

    uninstall = None
    if args.mode == "trace":
        import tracer

        spans = tracer.Tracer()
        uninstall = tracer.install(spans)

    probe = SpeedProbe(python_kernel)
    probe.start()
    setup_s, cfg, grid, fams, mu1 = setup(args.config)
    probe.stop()
    import nehari2d
    import numpy
    import scipy

    result = {
        "setup_s": setup_s,
        "setup_probe_s": probe.speed_since(0)["probe_s"],
        "mu1": mu1,
        "package": str(Path(nehari2d.__file__).resolve()),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    records = []
    if args.mode != "setup":
        probe = SpeedProbe(numpy_kernel)
        probe.start()
        t_loop = time.perf_counter()
        while True:
            out = args.out / f"solve-{len(records)}"
            first = len(probe.samples)
            records.append(solve_once(args.command, cfg, out))
            records[-1].update(probe.speed_since(first))
            if args.mode == "trace":
                break
            # start another solve only if it should end within --seconds
            now = time.perf_counter()
            last = records[-1]["solve_s"]
            if now - t_loop + last > args.seconds or now - _T0 + last > args.budget:
                break
        probe.stop()
        result["peak_rss_mb"] = peak_rss_mb()
        if uninstall is not None:
            spans.dump(args.out / "spans.npz")
            uninstall()
        for record in records:
            describe_outputs(record, cfg, grid, fams)
    result["solves"] = records
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
