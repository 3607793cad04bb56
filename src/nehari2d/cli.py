"""Configuration parsing, subcommand dispatch, and report persistence.

Configs are line-oriented `key = value` documents with dotted sections:

    grid.nx = 63
    grid.ny = 63
    params.p = 4.0
    params.beta = -2.0
    family1.kind = example
    family1.gamma = 1.0

Unknown keys are errors.  Every CSV written carries a provenance header
(config hash, seed, grid, tol) as comment lines.  All randomness
flows from the single seed in the config; there is no wall-clock entropy.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

from .coeffs import CoefficientFamily, certify, example_family, identity_family
from .energy import ProblemParams
from .errors import (
    CoercivityViolation,
    InadmissibleLambda,
    InvalidParams,
    InvalidSpec,
    NoConvergence,
    ParseError,
    ValidationError,
)
from .grid import GridSpec, build_grid, dump_field
from .solvers import (
    SolverOptions,
    SweepRow,
    beta_sweep,
    scalar_ground_state,
    solve_system,
    symmetric_problem,
)

COMMANDS = ("certify", "eigen", "solve-scalar", "solve-system", "sweep")

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_CONVERGENCE = 2
EXIT_INADMISSIBLE = 3
EXIT_COERCIVITY = 4

SWEEP_HEADER = (
    "beta,energy,L1,L2,e_beta,euler_res,nehari_r1,nehari_r2,"
    "fully_nontrivial,nonnegative,iterations,status"
)


@dataclass(frozen=True)
class FamilySpec:
    kind: str = "identity"
    gamma: float = 1.0

    def build(self) -> CoefficientFamily:
        if self.kind == "identity":
            return identity_family(self.gamma)
        if self.kind == "example":
            return example_family(self.gamma)
        raise ValidationError("family.kind", f"unknown kind {self.kind!r}")


@dataclass(frozen=True)
class RunConfig:
    grid: GridSpec = field(default_factory=lambda: GridSpec(31, 31, 1.0, 1.0))
    params: ProblemParams = field(
        default_factory=lambda: ProblemParams(0.0, 0.0, 0.0, 4.0, 1.0)
    )
    family1: FamilySpec = field(default_factory=FamilySpec)
    family2: FamilySpec = field(default_factory=FamilySpec)
    solver: SolverOptions = field(default_factory=SolverOptions)
    certify_s_min: float = -10.0
    certify_s_max: float = 10.0
    certify_n_samples: int = 10000
    beta_list: tuple[float, ...] = ()


def _float_list(text: str) -> tuple[float, ...]:
    items = [s for s in text.replace(",", " ").split() if s]
    return tuple(float(s) for s in items)


# key -> (section object name, attribute, converter)
_KEYS = {
    "grid.nx": ("grid", "nx", int),
    "grid.ny": ("grid", "ny", int),
    "grid.lx": ("grid", "lx", float),
    "grid.ly": ("grid", "ly", float),
    "params.lambda1": ("params", "lambda1", float),
    "params.lambda2": ("params", "lambda2", float),
    "params.beta": ("params", "beta", float),
    "params.p": ("params", "p", float),
    "params.gamma": ("params", "gamma", float),
    "family1.kind": ("family1", "kind", str),
    "family1.gamma": ("family1", "gamma", float),
    "family2.kind": ("family2", "kind", str),
    "family2.gamma": ("family2", "gamma", float),
    "solver.tol": ("solver", "tol", float),
    "solver.max_iter": ("solver", "max_iter", int),
    "solver.n_restarts": ("solver", "n_restarts", int),
    "solver.seed": ("solver", "seed", int),
    "certify.s_min": ("", "certify_s_min", float),
    "certify.s_max": ("", "certify_s_max", float),
    "certify.n_samples": ("", "certify_n_samples", int),
    "sweep.betas": ("", "beta_list", _float_list),
}


def _checked_solver(solver: SolverOptions) -> SolverOptions:
    for name in ("seed", "max_iter", "n_restarts"):
        if getattr(solver, name) < 0:
            raise ValidationError(f"solver.{name}", "must be nonnegative")
    if not (solver.tol > 0.0 and math.isfinite(solver.tol)):
        raise ValidationError("solver.tol", "must be a finite positive number")
    return solver


def parse_config(text: str) -> RunConfig:
    """Parse and fully validate a configuration document."""
    raw: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParseError(line_no, f"expected `key = value`, got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ParseError(line_no, f"unknown key {key!r}")
        if key in raw:
            raise ParseError(line_no, f"duplicate key {key!r}")
        raw[key] = value

    sections: dict[str, dict[str, object]] = {
        "grid": {},
        "params": {},
        "family1": {},
        "family2": {},
        "solver": {},
        "": {},
    }
    for key, value in raw.items():
        section, attr, conv = _KEYS[key]
        try:
            sections[section][attr] = conv(value)
        except (ValueError, TypeError) as exc:
            raise ValidationError(key, str(exc)) from None

    defaults = RunConfig()
    try:
        grid = replace(defaults.grid, **sections["grid"])
    except InvalidSpec as exc:
        raise ValidationError("grid", str(exc)) from None
    try:
        params = replace(defaults.params, **sections["params"])
    except InvalidParams as exc:
        raise ValidationError("params", str(exc)) from None
    family1 = replace(defaults.family1, **sections["family1"])
    family2 = replace(defaults.family2, **sections["family2"])
    for name, fam in (("family1", family1), ("family2", family2)):
        if fam.kind not in ("identity", "example"):
            raise ValidationError(f"{name}.kind", f"unknown kind {fam.kind!r}")
        if not (0.0 < fam.gamma < math.inf):
            raise ValidationError(f"{name}.gamma", "must be a finite positive number")
    solver = _checked_solver(replace(defaults.solver, **sections["solver"]))
    top = sections[""]
    cfg = RunConfig(
        grid=grid,
        params=params,
        family1=family1,
        family2=family2,
        solver=solver,
        certify_s_min=top.get("certify_s_min", defaults.certify_s_min),
        certify_s_max=top.get("certify_s_max", defaults.certify_s_max),
        certify_n_samples=top.get("certify_n_samples", defaults.certify_n_samples),
        beta_list=top.get("beta_list", defaults.beta_list),
    )
    for key in ("s_min", "s_max"):
        if not math.isfinite(getattr(cfg, f"certify_{key}")):
            raise ValidationError(f"certify.{key}", "must be finite")
    if not cfg.certify_s_min < cfg.certify_s_max:
        raise ValidationError("certify.s_min", "need s_min < s_max")
    if cfg.certify_n_samples < 100:
        raise ValidationError("certify.n_samples", "need at least 100 samples")
    return cfg


def serialize_config(cfg: RunConfig) -> str:
    """Inverse of parse_config; parse(serialize(cfg)) == cfg."""
    lines = []
    for key, (section, attr, _conv) in _KEYS.items():
        obj = {
            "grid": cfg.grid,
            "params": cfg.params,
            "family1": cfg.family1,
            "family2": cfg.family2,
            "solver": cfg.solver,
            "": cfg,
        }[section]
        value = getattr(obj, attr)
        if isinstance(value, tuple):
            if not value:
                continue
            text = " ".join(f"{v:.17g}" for v in value)
        elif isinstance(value, float):
            text = f"{value:.17g}"
        else:
            text = str(value)
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"


def config_digest(cfg: RunConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode()).hexdigest()[:16]


def provenance_lines(cfg: RunConfig) -> list[str]:
    g = cfg.grid
    return [
        f"# config_sha256 = {config_digest(cfg)}",
        f"# seed = {cfg.solver.seed}",
        f"# grid = {g.nx}x{g.ny} on {g.lx:g}x{g.ly:g}",
        f"# tol = {cfg.solver.tol:g}",
    ]


def _write_csv(path: Path, cfg: RunConfig, header: str, rows: list[str]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        for line in provenance_lines(cfg):
            fh.write(line + "\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def sweep_row_csv(row: SweepRow) -> str:
    if row.report is None:
        return (
            f"{_fmt(row.beta)},nan,nan,nan,nan,nan,nan,nan,false,false,0,"
            f"error:{row.error.replace(',', ';')}"
        )
    r = row.report
    return ",".join(
        [
            _fmt(row.beta),
            _fmt(r.energy),
            _fmt(r.L1),
            _fmt(r.L2),
            _fmt(r.e_beta_estimate),
            _fmt(r.euler_residual_norm),
            _fmt(r.nehari_residual.r1),
            _fmt(r.nehari_residual.r2),
            "true" if r.fully_nontrivial else "false",
            "true" if r.nonnegative else "false",
            str(r.iterations),
            row.status,
        ]
    )


def _cmd_certify(cfg: RunConfig, out: Path) -> int:
    for name, spec in (("family1", cfg.family1), ("family2", cfg.family2)):
        fam = spec.build()
        report = certify(
            fam,
            cfg.params.p,
            (cfg.certify_s_min, cfg.certify_s_max),
            cfg.certify_n_samples,
        )
        rows = report.csv_rows()
        _write_csv(out / f"certify_{name}.csv", cfg, rows[0], rows[1:])
        print(
            f"{name} ({fam.label}): "
            + ("all conditions pass" if report.all_passed else "FAILURES present"),
            file=sys.stderr,
        )
    return EXIT_OK


def _cmd_eigen(cfg: RunConfig, out: Path) -> int:
    grid = build_grid(cfg.grid)
    pair = grid.eigenpair
    _write_csv(
        out / "eigen.csv",
        cfg,
        "mu1,residual,iterations",
        [f"{_fmt(pair.mu)},{_fmt(pair.residual)},{pair.iterations}"],
    )
    return EXIT_OK


def _print_warnings(warnings, prefix: str = "") -> None:
    for w in warnings:
        print(f"warning: {prefix}{w}", file=sys.stderr)


def _cmd_solve_scalar(cfg: RunConfig, out: Path) -> int:
    grid = build_grid(cfg.grid)
    fam1, fam2 = cfg.family1.build(), cfg.family2.build()
    # for symmetric data the two scalar problems are one
    same = symmetric_problem(cfg.params, fam1, fam2)
    rows = []
    for i, fam in ((1, fam1), (2, fam2)):
        if i == 1 or not same:
            z, level, rep = scalar_ground_state(i, cfg.params, fam, grid, cfg.solver)
            _print_warnings(rep.warnings, f"component {i}: ")
        dump_field(z, grid, out / f"scalar_{i}.field")
        rows.append(
            f"{i},{_fmt(level)},{_fmt(rep.euler_residual_norm)},"
            f"{rep.iterations},{str(rep.converged).lower()}"
        )
    _write_csv(
        out / "scalar.csv", cfg, "component,L,euler_res,iterations,converged", rows
    )
    return EXIT_OK


def _cmd_solve_system(cfg: RunConfig, out: Path) -> int:
    grid = build_grid(cfg.grid)
    fam1, fam2 = cfg.family1.build(), cfg.family2.build()
    u, rep = solve_system(cfg.params, fam1, fam2, grid, cfg.solver)
    dump_field(u.u1, grid, out / "u1.field")
    dump_field(u.u2, grid, out / "u2.field")
    row = sweep_row_csv(SweepRow(beta=cfg.params.beta, status="ok", report=rep))
    _write_csv(out / "system.csv", cfg, SWEEP_HEADER, [row])
    _print_warnings(rep.warnings)
    return EXIT_OK


def _cmd_sweep(cfg: RunConfig, out: Path) -> int:
    if not cfg.beta_list:
        print("sweep requires `sweep.betas` in the config", file=sys.stderr)
        return EXIT_USAGE
    grid = build_grid(cfg.grid)
    fam1, fam2 = cfg.family1.build(), cfg.family2.build()
    rows = beta_sweep(cfg.beta_list, cfg.params, fam1, fam2, grid, cfg.solver)
    _write_csv(out / "sweep.csv", cfg, SWEEP_HEADER, [sweep_row_csv(r) for r in rows])
    for r in rows:
        if r.report is not None:
            _print_warnings(r.report.warnings, f"beta = {r.beta:g}: ")
    bad = [r for r in rows if r.status != "ok"]
    for r in bad:
        print(f"beta = {r.beta:g} failed: {r.error}", file=sys.stderr)
    return EXIT_OK if not bad else EXIT_NO_CONVERGENCE


def build_parser() -> argparse.ArgumentParser:
    defaults = "\n".join(
        "  " + line for line in serialize_config(RunConfig()).splitlines()
    )
    parser = argparse.ArgumentParser(
        prog="nehari2d",
        description=(
            "Least energy states of coupled quasilinear elliptic systems "
            "on rectangles."
        ),
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "config keys with their defaults (sweep.betas defaults to empty):\n"
            + defaults
        ),
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to the config document")
    parser.add_argument("--out", default=".", help="output directory (default: cwd)")
    parser.add_argument("--seed", type=int, default=None, help="override solver.seed")
    return parser


def run(command: str, cfg: RunConfig, out_dir) -> int:
    """Execute one subcommand; returns the process exit status."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dispatch = {
        "certify": _cmd_certify,
        "eigen": _cmd_eigen,
        "solve-scalar": _cmd_solve_scalar,
        "solve-system": _cmd_solve_system,
        "sweep": _cmd_sweep,
    }
    try:
        return dispatch[command](cfg, out)
    except InadmissibleLambda as exc:
        print(f"inadmissible parameters: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    except NoConvergence as exc:
        print(f"solver failed to converge: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except CoercivityViolation as exc:
        print(f"coercivity bound violated: {exc}", file=sys.stderr)
        return EXIT_COERCIVITY


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        cfg = parse_config(text)
        if args.seed is not None:
            solver = _checked_solver(replace(cfg.solver, seed=args.seed))
            cfg = replace(cfg, solver=solver)
    except (ParseError, ValidationError) as exc:
        print(f"bad config: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return run(args.command, cfg, args.out)


if __name__ == "__main__":
    sys.exit(main())
