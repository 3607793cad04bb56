"""Tests of the benchmark itself, on 7x7 grids.

    python3 -m pytest bench -q

The wrappers' call counts are compared with an independent count taken
by `sys.setprofile` on the original code objects; span self times must
add up within their parents; and a traced solve must write the same
bytes as an untraced one.
"""

import importlib
import inspect
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

import child  # noqa: E402
import run as bench  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

N = 7


def small_config(name: str, **overrides) -> str:
    """The workload's config on an NxN grid, with a few keys replaced."""
    from nehari2d.grid import GridSpec, build_grid
    from nehari2d.solvers import conservative_mu1

    wl = WORKLOADS[name]
    mu1 = conservative_mu1(build_grid(GridSpec(N, N, 1.0, 1.0)))
    keys = dict(line.split(" = ", 1) for line in wl.config(0, mu1).splitlines())
    keys.update({"grid.nx": str(N), "grid.ny": str(N), **overrides})
    return "".join(f"{k} = {v}\n" for k, v in keys.items())


def original_codes() -> dict:
    """Code object -> span name for everything the tracer wraps."""
    codes = {}
    for layer in tracer.LAYERS:
        mod = importlib.import_module(f"nehari2d.{layer}")
        for name, fn in vars(mod).items():
            if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                    and not name.startswith("_")):
                codes[fn.__code__] = f"{layer}.{name}"

    def nested(fn, inner):
        return next(c for c in fn.__code__.co_consts
                    if inspect.iscode(c) and c.co_name == inner)

    coeffs = importlib.import_module("nehari2d.coeffs")
    spectrum = importlib.import_module("nehari2d.spectrum")
    codes[nested(coeffs.example_family, "a")] = "coeffs.a"
    codes[nested(coeffs.example_family, "da")] = "coeffs.da"
    codes[nested(spectrum.make_poisson_solver, "solve")] = "spectrum.poisson_solve"
    return codes


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """A competitive solve and a cooperative sweep, traced and profiled.

    Both use example profiles only, whose a/da closures the profiler
    can tell apart (the identity profile's are anonymous lambdas).
    """
    import nehari2d.cli

    out = tmp_path_factory.mktemp("traced")
    codes = original_codes()
    profiled = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            profiled[codes[frame.f_code]] += 1

    spans = tracer.Tracer()
    uninstall = tracer.install(spans)
    sys.setprofile(profile)
    try:
        for name, over in (
            ("competitive-sym-31", {"solver.max_iter": "200"}),
            ("cooperative-sweep-63", {"sweep.betas": "5, 10"}),
        ):
            cfg = nehari2d.cli.parse_config(small_config(name, **over))
            rc = nehari2d.cli.run(WORKLOADS[name].command, cfg, out / name)
            assert rc == 0
    finally:
        sys.setprofile(None)
        uninstall()
    spans.dump(out / "spans.npz")
    return spans, profiled, set(codes.values()), out


def test_call_counts_match_profiler(traced):
    spans, profiled, names, _out = traced
    counted = Counter(spans.names[i] for i in spans.name_id)
    assert {n: counted[n] for n in names} == {n: profiled[n] for n in names}
    for name in ("grid.cell_values", "coeffs.a", "fiber.project_to_nehari",
                 "fiber.scalar_fiber_root", "spectrum.poisson_solve"):
        assert counted[name] > 0, name


def test_uninstall_restores_functions(traced):
    import nehari2d
    import nehari2d.energy
    import nehari2d.grid

    assert not hasattr(nehari2d.grid.cell_values, "__wrapped__")
    assert nehari2d.energy.cell_values is nehari2d.grid.cell_values
    assert nehari2d.total_energy is nehari2d.energy.total_energy


def test_self_times_within_parent_total(traced):
    _spans, _profiled, _names, out = traced
    s = tracer.Spans(out / "spans.npz")
    eps = 1e-9
    assert (s.self_time >= -eps).all()
    # self times summed over each span's subtree equal its duration
    subtree = s.self_time.copy()
    for i in range(len(subtree) - 1, -1, -1):
        if s.parent[i] >= 0:
            subtree[s.parent[i]] += subtree[i]
    assert (subtree <= s.dur + eps).all()
    assert (abs(subtree - s.dur) <= 1e-6).all()
    for name in ("fiber.project_to_nehari", "fiber.scalar_fiber_root",
                 "solvers.refine_solution"):
        assert 0.0 < s.self_of(name) <= s.total_of(name) + eps


def test_layer_metrics_complete(traced):
    _spans, _profiled, _names, out = traced
    s = tracer.Spans(out / "spans.npz")
    metrics = tracer.layer_metrics(s, descent_iters=100, overhead=1.0)
    assert list(metrics) == [name for name, _unit in tracer.PER_LAYER]
    assert metrics["fiber.project_to_nehari.projectable_ratio"] <= 1.0
    assert 0 < metrics["solvers.refine_solution.grad_evals"] <= (
        metrics["energy.euler_gradient.calls"])
    assert metrics["coeffs.a.elems"] >= metrics["coeffs.a.calls"]


def test_traced_outputs_bit_identical(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(small_config("competitive-asym-31", **{
        "solver.n_restarts": "0", "solver.max_iter": "200"}))
    hashes = {}
    for mode in ("solve", "trace"):
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), mode, str(cfg),
             str(tmp_path / mode), "--command", "solve-system"],
            env=bench.child_env(), capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        (solve,) = json.loads(proc.stdout.splitlines()[-1])["solves"]
        assert bench.check_solve(WORKLOADS["competitive-asym-31"], 1, solve) == []
        hashes[mode] = solve["hashes"]
    assert set(hashes["solve"]) == {"system.csv", "u1.field", "u2.field"}
    assert hashes["trace"] == hashes["solve"]
    assert (tmp_path / "trace" / "spans.npz").is_file()


def test_speed_probe_samples_and_leaves_outputs_alone(tmp_path):
    import nehari2d.cli

    cfg = nehari2d.cli.parse_config(small_config(
        "competitive-sym-31", **{"solver.max_iter": "200"}))
    probe = child.SpeedProbe(child.numpy_kernel)
    probe.start()
    try:
        rc = nehari2d.cli.run("solve-system", cfg, tmp_path / "probed")
        speed = probe.speed_since(0)
    finally:
        probe.stop()
    assert rc == 0
    assert nehari2d.cli.run("solve-system", cfg, tmp_path / "plain") == 0
    for name in ("system.csv", "u1.field", "u2.field"):
        assert ((tmp_path / "probed" / name).read_bytes()
                == (tmp_path / "plain" / name).read_bytes()), name
    assert speed["probe_n"] == len(probe.samples) > 0
    assert min(probe.samples) <= speed["probe_s"] <= max(probe.samples)
    assert bench.scaled(2.0, 2 * bench.PROBE_REF_S) == pytest.approx(1.0)
    assert bench.scaled(2.0, None) == 2.0


def test_check_solve_flags_each_failure():
    wl = WORKLOADS["competitive-sym-31"]
    row = {"beta": "-2", "energy": repr(wl.reference_energies[0]),
           "euler_res": "1e-12", "nehari_r1": "1e-14", "nehari_r2": "-1e-14",
           "fully_nontrivial": "true", "nonnegative": "true", "status": "ok"}
    good = {"rc": 0, "rows": [row], "reloaded_energy": wl.reference_energies[0]}
    assert bench.check_solve(wl, wl.reference_seed, good) == []

    shifted = dict(row, energy=repr(wl.reference_energies[0] * (1 + 1e-9)))
    rec = dict(good, rows=[shifted], reloaded_energy=float(shifted["energy"]))
    assert len(bench.check_solve(wl, wl.reference_seed, rec)) == 1
    assert bench.check_solve(wl, wl.reference_seed + 1, rec) == []

    for key, value in (("euler_res", "2e-8"), ("nehari_r2", "-2e-8"),
                       ("nonnegative", "false"), ("status", "error:x")):
        rec = dict(good, rows=[dict(row, **{key: value})])
        assert bench.check_solve(wl, 5, rec), key
    assert bench.check_solve(wl, 5, dict(good, rc=2))
    assert bench.check_solve(wl, 5, dict(good, reloaded_energy=420.0))
