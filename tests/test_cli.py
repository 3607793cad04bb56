import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import nehari2d.cli as C
from nehari2d import (
    GridSpec,
    ProblemParams,
    ScalarField,
    SolverOptions,
    StatePair,
    load_field,
)
from nehari2d.cli import (
    EIGEN_HEADER,
    EXIT_OK,
    EXIT_USAGE,
    SWEEP_HEADER,
    RunConfig,
    config_digest,
    main,
    parse_config,
    serialize_config,
)
from nehari2d.errors import (
    CoercivityViolation,
    InadmissibleLambda,
    InvalidState,
    NoConvergence,
    ParseError,
    ValidationError,
)
from nehari2d.energy import NehariResidual
from nehari2d.solvers import ScalarReport, SolveReport, SweepRow

from conftest import PROPERTY

MINIMAL = """
grid.nx = 9
grid.ny = 9
params.p = 4.0
params.beta = 0.0
"""

FAST_SOLVE = """
grid.nx = 9
grid.ny = 9
params.p = 4.0
params.gamma = 1.0
params.beta = {beta}
family1.kind = {fam}
family1.gamma = 1.0
family2.kind = {fam}
family2.gamma = 1.0
solver.tol = 1e-7
solver.n_restarts = 0
solver.max_iter = 800
solver.seed = 0
"""


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParseConfig:
    def test_minimal_document_gets_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.grid.nx == 9 and cfg.grid.lx == 1.0
        assert cfg.params.p == 4.0
        assert cfg.solver.seed == 0
        assert cfg.family1.kind == "identity"

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# hello\n\ngrid.nx = 5\ngrid.ny = 5\n")
        assert cfg.grid.nx == 5

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError):
            parse_config("grid.nz = 3\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ParseError):
            parse_config("grid.nx 3\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ParseError):
            parse_config("grid.nx = 3\ngrid.nx = 5\n")

    def test_subcritical_p_rejected(self):
        with pytest.raises(ValidationError):
            parse_config("params.p = 1.5\n")

    def test_gamma_window_rejected(self):
        with pytest.raises(ValidationError):
            parse_config("params.p = 4.0\nparams.gamma = 3.0\n")

    def test_bad_value_type(self):
        with pytest.raises(ValidationError):
            parse_config("grid.nx = a lot\n")

    def test_bad_family_kind(self):
        with pytest.raises(ValidationError):
            parse_config("family1.kind = sombrero\n")

    @pytest.mark.parametrize("key", [
        "solver.nehari_tol", "solver.armijo", "solver.stagnation_tol",
        "solver.stagnation_window", "solver.scan_t_min", "solver.scan_t_max",
        "solver.scan_n", "solver.polish_max_iter", "solver.polish_inner_iter",
        "solver.check_coercivity",
    ])
    def test_fixed_solver_settings_are_unknown_keys(self, tmp_path, capsys, key):
        text = MINIMAL + f"{key} = 0\n"
        with pytest.raises(ParseError, match="unknown key"):
            parse_config(text)
        rc = main(["solve-system", "--config", write_cfg(tmp_path, text),
                   "--out", str(tmp_path)])
        assert rc == EXIT_USAGE
        assert "unknown key" in capsys.readouterr().err

    def test_round_trip_default(self):
        cfg = RunConfig()
        assert parse_config(serialize_config(cfg)) == cfg

    def test_round_trip_custom(self):
        text = FAST_SOLVE.format(beta=-2.0, fam="example") + "sweep.betas = -1,-2\n"
        cfg = parse_config(text)
        again = parse_config(serialize_config(cfg))
        assert again == cfg
        assert config_digest(again) == config_digest(cfg)


def finite(**kwargs):
    return st.floats(allow_nan=False, allow_infinity=False, **kwargs)


positive = finite(min_value=0.0, exclude_min=True)
counts = st.integers(min_value=0, max_value=2**40)


@st.composite
def valid_configs(draw):
    """Valid RunConfigs with every key drawn, sweep.betas nonempty."""
    p = draw(finite(min_value=2.5, max_value=100.0))
    s_min = draw(finite(min_value=-1e6, max_value=1e6))
    family = st.builds(C.FamilySpec, st.sampled_from(["identity", "example"]),
                       positive)
    return RunConfig(
        grid=GridSpec(draw(st.integers(2, 500)), draw(st.integers(2, 500)),
                      draw(positive), draw(positive)),
        params=ProblemParams(
            draw(finite()), draw(finite()), draw(finite()), p,
            draw(finite(min_value=0.0, max_value=p - 2.0, exclude_min=True,
                        exclude_max=True)),
        ),
        family1=draw(family),
        family2=draw(family),
        solver=SolverOptions(draw(positive), draw(counts), draw(counts),
                             draw(counts)),
        certify=C.CertifySpec(
            s_min, draw(finite(min_value=s_min, max_value=2e6, exclude_min=True)),
            draw(st.integers(100, 10**6)),
        ),
        sweep=C.SweepSpec(tuple(draw(st.lists(
            st.floats(allow_nan=False), min_size=1, max_size=5
        )))),
    )


non_finite = st.sampled_from(["nan", "inf", "-inf"])
negative = st.integers(max_value=-1).map(str)

# key -> (strategy for an invalid value, the key the error names)
INVALID = {
    "solver.seed": (negative, "solver.seed"),
    "solver.max_iter": (negative, "solver.max_iter"),
    "solver.n_restarts": (negative, "solver.n_restarts"),
    "grid.nx": (st.integers(max_value=1).map(str), "grid"),
    "certify.n_samples": (st.integers(max_value=99).map(str), "certify.n_samples"),
    "solver.tol": (non_finite | finite(max_value=0.0).map(repr), "solver.tol"),
    "family1.gamma": (non_finite | finite(max_value=0.0).map(repr), "family1.gamma"),
    "family2.kind": (
        st.text("abcdefghijklmnopqrstuvwxyz", min_size=1).filter(
            lambda k: k not in ("identity", "example")
        ),
        "family2.kind",
    ),
    "certify.s_min": (non_finite, "certify.s_min"),
    "certify.s_max": (non_finite, "certify.s_max"),
    "params.beta": (non_finite, "params"),
    "grid.ly": (non_finite, "grid"),
}


class TestConfigProperties:
    @PROPERTY
    @given(valid_configs())
    def test_round_trip_covers_every_key(self, cfg):
        text = serialize_config(cfg)
        assert [line.split(" = ")[0] for line in text.splitlines()] == list(C._KEYS)
        assert parse_config(text) == cfg

    @pytest.mark.parametrize("key", sorted(INVALID))
    @PROPERTY
    @given(data=st.data())
    def test_invalid_value_is_bad_config_keyed_by_field(self, tmp_path_factory,
                                                        key, data):
        value = data.draw(INVALID[key][0])
        self.assert_bad_config(tmp_path_factory, f"{key} = {value}\n",
                               INVALID[key][1])

    @PROPERTY
    @given(finite(min_value=-1e6, max_value=1e6), finite(min_value=0.0, max_value=1e6))
    def test_empty_certify_range_is_bad_config(self, tmp_path_factory, s_max, gap):
        text = f"certify.s_min = {s_max + gap!r}\ncertify.s_max = {s_max!r}\n"
        self.assert_bad_config(tmp_path_factory, text, "certify.s_min")

    @staticmethod
    def assert_bad_config(tmp_path_factory, text, key):
        with pytest.raises(ValidationError) as err:
            parse_config(text)
        assert err.value.key == key
        path = tmp_path_factory.mktemp("cfg") / "run.cfg"
        path.write_text(text)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            rc = main(["eigen", "--config", str(path), "--out", str(path.parent)])
        assert rc == EXIT_USAGE
        assert stderr.getvalue() == f"bad config: {err.value}\n"
        assert stderr.getvalue().startswith(f"bad config: {key}: ")
        assert list(path.parent.iterdir()) == [path]


class TestHelp:
    def test_help_documents_every_key_with_default(self):
        from nehari2d.cli import _KEYS, build_parser

        text = build_parser().format_help()
        for key in _KEYS:
            if key == "sweep.betas":  # empty default, documented in prose
                continue
            assert key in text


class TestCommands:
    def test_eigen_csv(self, tmp_path):
        cfg = write_cfg(tmp_path, "grid.nx = 31\ngrid.ny = 31\n")
        rc = main(["eigen", "--config", cfg, "--out", str(tmp_path)])
        assert rc == EXIT_OK
        lines = (tmp_path / "eigen.csv").read_text().splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        assert any("config_sha256" in c for c in comments)
        assert any("seed" in c for c in comments)
        header = [ln for ln in lines if not ln.startswith("#")][0]
        assert header == EIGEN_HEADER == "mu1,residual"
        mu1 = float(lines[-1].split(",")[0])
        h = 1.0 / 32.0
        exact = (8.0 / h**2) * math.sin(math.pi * h / 2.0) ** 2
        assert abs(mu1 - exact) / exact < 1e-10

    def test_certify_csv(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "family1.kind = example\nfamily1.gamma = 1.0\nparams.p = 4.0\n",
        )
        rc = main(["certify", "--config", cfg, "--out", str(tmp_path)])
        assert rc == EXIT_OK
        for name in ("certify_family1.csv", "certify_family2.csv"):
            lines = [
                ln
                for ln in (tmp_path / name).read_text().splitlines()
                if not ln.startswith("#")
            ]
            assert lines[0] == "condition,verdict,witness_s"
            assert all("fail" not in ln for ln in lines[1:])

    def test_solve_system_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_SOLVE.format(beta=-2.0, fam="example"))
        rc = main(["solve-system", "--config", cfg, "--out", str(tmp_path)])
        assert rc == EXIT_OK
        lines = [
            ln
            for ln in (tmp_path / "system.csv").read_text().splitlines()
            if not ln.startswith("#")
        ]
        assert lines[0] == SWEEP_HEADER
        row = lines[1].split(",")
        assert row[-1] == "ok"
        assert (tmp_path / "u1.field").exists()
        assert (tmp_path / "u2.field").exists()

    def test_field_dump_energy_round_trip(self, tmp_path):
        from nehari2d import (
            ProblemParams,
            StatePair,
            build_grid,
            example_family,
            total_energy,
        )

        cfg_path = write_cfg(tmp_path, FAST_SOLVE.format(beta=-2.0, fam="example"))
        main(["solve-system", "--config", cfg_path, "--out", str(tmp_path)])
        lines = [
            ln
            for ln in (tmp_path / "system.csv").read_text().splitlines()
            if not ln.startswith("#")
        ]
        energy_reported = float(lines[1].split(",")[1])
        u1 = load_field(tmp_path / "u1.field")
        u2 = load_field(tmp_path / "u2.field")
        grid = build_grid(u1.spec)
        params = ProblemParams(0.0, 0.0, -2.0, 4.0, 1.0)
        fam = example_family(1.0)
        e = total_energy(StatePair(u1, u2), params, fam, fam, grid)
        assert abs(e - energy_reported) <= 1e-12 * (1.0 + abs(energy_reported))

    def test_inadmissible_exit_code(self, tmp_path):
        text = FAST_SOLVE.format(beta=-2.0, fam="identity") + "params.lambda1 = 50.0\n"
        cfg = write_cfg(tmp_path, text)
        rc = main(["solve-system", "--config", cfg, "--out", str(tmp_path)])
        assert rc == InadmissibleLambda.exit_status == 3

    def test_inadmissible_message_cites_threshold(self, tmp_path, capsys):
        text = FAST_SOLVE.format(beta=-2.0, fam="identity") + "params.lambda1 = 50.0\n"
        cfg = write_cfg(tmp_path, text)
        main(["solve-system", "--config", cfg, "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert "threshold" in err

    def test_inadmissible_message_built_by_the_solve(self, tmp_path, capsys):
        text = FAST_SOLVE.format(beta=-2.0, fam="example") + "params.lambda1 = 1000\n"
        cfg = write_cfg(tmp_path, text)
        rc = main(["solve-system", "--config", cfg, "--out", str(tmp_path)])
        assert rc == InadmissibleLambda.exit_status == 3
        err = capsys.readouterr().err
        assert err.count("threshold =") == 2
        assert "strong threshold = 9.7886967, weak threshold = 19.577393" in err

    def test_coercivity_violation_exit_code(self, tmp_path, monkeypatch, capsys):
        def violates(*args, **kwargs):
            raise CoercivityViolation("constrained energy fell below the bound")

        monkeypatch.setattr(C, "solve_system", violates)
        cfg = write_cfg(tmp_path, FAST_SOLVE.format(beta=-2.0, fam="identity"))
        rc = main(["solve-system", "--config", cfg, "--out", str(tmp_path)])
        assert rc == CoercivityViolation.exit_status == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "fell below the bound" in err

    def test_non_finite_state_exits_with_one_line(self, tmp_path, monkeypatch,
                                                  capsys):
        def diverges(params, fam1, fam2, grid, opts):
            nan = np.full((2, *grid.shape), np.nan)
            return StatePair.from_stack(nan, grid.spec), None

        monkeypatch.setattr(C, "solve_system", diverges)
        cfg = write_cfg(tmp_path, FAST_SOLVE.format(beta=-2.0, fam="identity"))
        rc = main(["solve-system", "--config", cfg, "--out", str(tmp_path)])
        assert rc == InvalidState.exit_status == 1
        err = capsys.readouterr().err
        assert err == "invalid state: field contains non-finite entries\n"
        assert not (tmp_path / "system.csv").exists()

    def test_sweep_csv(self, tmp_path):
        text = FAST_SOLVE.format(beta=0.0, fam="identity") + "sweep.betas = 0\n"
        cfg = write_cfg(tmp_path, text)
        rc = main(["sweep", "--config", cfg, "--out", str(tmp_path)])
        assert rc == EXIT_OK
        lines = [
            ln
            for ln in (tmp_path / "sweep.csv").read_text().splitlines()
            if not ln.startswith("#")
        ]
        assert lines[0] == SWEEP_HEADER
        row = lines[1].split(",")
        energy, L1, L2 = float(row[1]), float(row[2]), float(row[3])
        assert energy == pytest.approx(L1 + L2, rel=1e-9)

    def test_sweep_row_error_is_written_and_reported(self, tmp_path, capsys):
        text = FAST_SOLVE.format(beta=0.0, fam="identity").replace(
            "= 9\n", "= 7\n") + "sweep.betas = -2, nan\n"
        cfg = write_cfg(tmp_path, text)
        rc = main(["sweep", "--config", cfg, "--out", str(tmp_path)])
        assert rc == NoConvergence.exit_status == 2
        lines = [
            ln
            for ln in (tmp_path / "sweep.csv").read_text().splitlines()
            if not ln.startswith("#")
        ]
        assert lines[0] == SWEEP_HEADER and len(lines) == 3
        assert lines[1].startswith("-2,") and lines[1].endswith(",ok")
        assert lines[2] == "nan," + "nan," * 7 + "false,false,0,error:non-finite beta"
        assert len(lines[2].split(",")) == len(SWEEP_HEADER.split(","))
        assert capsys.readouterr().err == "beta = nan failed: non-finite beta\n"

    def test_sweep_without_betas_is_usage_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FAST_SOLVE.format(beta=0.0, fam="identity"))
        rc = main(["sweep", "--config", cfg, "--out", str(tmp_path)])
        assert rc == EXIT_USAGE == ValidationError.exit_status
        err = capsys.readouterr().err
        assert err == "bad config: sweep.betas: sweep needs at least one beta\n"
        assert not (tmp_path / "sweep.csv").exists()

    def test_solve_scalar_outputs(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_SOLVE.format(beta=0.0, fam="identity"))
        rc = main(["solve-scalar", "--config", cfg, "--out", str(tmp_path)])
        assert rc == EXIT_OK
        assert (tmp_path / "scalar_1.field").exists()
        lines = [
            ln
            for ln in (tmp_path / "scalar.csv").read_text().splitlines()
            if not ln.startswith("#")
        ]
        assert lines[0] == "component,L,euler_res,iterations,converged"
        assert len(lines) == 3

    @pytest.mark.parametrize("fam2,expected", [("example", [1]), ("identity", [1, 2])])
    def test_solve_scalar_solves_symmetric_data_once(self, tmp_path, monkeypatch,
                                                     fam2, expected):
        calls = []

        def fake(i, params, fam, grid, opts=None):
            calls.append(i)
            z = ScalarField(np.full(grid.shape, float(i)), grid.spec)
            return z, float(i), ScalarReport(float(i), 0.0, i, "admissible")

        monkeypatch.setattr(C, "scalar_ground_state", fake)
        text = FAST_SOLVE.format(beta=0.0, fam="example").replace(
            "family2.kind = example", f"family2.kind = {fam2}"
        )
        cfg = write_cfg(tmp_path, text)
        rc = main(["solve-scalar", "--config", cfg, "--out", str(tmp_path)])
        assert rc == EXIT_OK
        assert calls == expected
        # component 2 reports the solve it came from
        row2 = (tmp_path / "scalar.csv").read_text().splitlines()[-1].split(",")
        assert float(row2[1]) == expected[-1] and int(row2[3]) == expected[-1]
        z2 = load_field(tmp_path / "scalar_2.field")
        assert np.all(z2.values == float(expected[-1]))

    def test_solve_scalar_prints_warnings(self, tmp_path, monkeypatch, capsys):
        def fake(i, params, fam, grid, opts=None):
            z = ScalarField(np.ones(grid.shape), grid.spec)
            return z, 1.0, ScalarReport(1.0, 0.0, 1, "admissible", ("w",))

        monkeypatch.setattr(C, "scalar_ground_state", fake)
        cfg = write_cfg(tmp_path, FAST_SOLVE.format(beta=0.0, fam="identity"))
        rc = main(["solve-scalar", "--config", cfg, "--out", str(tmp_path)])
        assert rc == EXIT_OK
        # symmetric data: one solve, so one warning
        assert capsys.readouterr().err == "warning: component 1: w\n"

    def test_sweep_prints_row_warnings(self, tmp_path, monkeypatch, capsys):
        rep = SolveReport(1.0, 1.0, 1.0, 0.0, NehariResidual(0.0, 0.0),
                          True, True, 1, "cooperative", ("w",))

        def fake(beta_list, *args):
            return [SweepRow(beta=b, status="ok", report=rep) for b in beta_list]

        monkeypatch.setattr(C, "beta_sweep", fake)
        text = FAST_SOLVE.format(beta=0.0, fam="identity") + "sweep.betas = 5, 10\n"
        cfg = write_cfg(tmp_path, text)
        rc = main(["sweep", "--config", cfg, "--out", str(tmp_path)])
        assert rc == EXIT_OK
        err = capsys.readouterr().err
        assert err == "warning: beta = 5: w\nwarning: beta = 10: w\n"

    def test_bad_config_is_usage_error(self, tmp_path):
        cfg = write_cfg(tmp_path, "grid.nx = -3\n")
        rc = main(["eigen", "--config", cfg, "--out", str(tmp_path)])
        assert rc == EXIT_USAGE

    def test_missing_config_is_usage_error(self, tmp_path):
        rc = main(["eigen", "--config", str(tmp_path / "absent.cfg")])
        assert rc == EXIT_USAGE

    def test_negative_seed_override_is_bad_config(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, FAST_SOLVE.format(beta=-2.0, fam="identity"))
        rc = main(["solve-system", "--config", cfg, "--out", str(tmp_path),
                   "--seed", "-1"])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "bad config: solver.seed: must be nonnegative\n"
        assert not (tmp_path / "system.csv").exists()

    @pytest.mark.parametrize("key", ["lambda1", "lambda2", "beta"])
    def test_non_finite_param_is_bad_config(self, tmp_path, capsys, key):
        text = FAST_SOLVE.format(beta=0.0, fam="identity")
        text = text.replace("params.beta = 0.0\n", "") + f"params.{key} = nan\n"
        rc = main(["solve-system", "--config", write_cfg(tmp_path, text),
                   "--out", str(tmp_path)])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"bad config: params: need a finite {key}, got nan\n"
        assert not (tmp_path / "system.csv").exists()

    def test_infinite_p_is_bad_config(self, tmp_path, capsys):
        text = FAST_SOLVE.format(beta=0.0, fam="identity")
        text = text.replace("params.p = 4.0", "params.p = inf")
        rc = main(["solve-system", "--config", write_cfg(tmp_path, text),
                   "--out", str(tmp_path)])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "bad config: params: need a finite p, got inf\n"
        assert not (tmp_path / "system.csv").exists()

    @pytest.mark.parametrize("command", ["solve-system", "certify"])
    @pytest.mark.parametrize("lines,err", [
        ("family1.gamma = nan", "family1.gamma: must be a finite positive number"),
        ("family1.kind = example\nfamily1.gamma = inf",
         "family1.gamma: must be a finite positive number"),
        ("grid.lx = inf", "grid: need finite lx, ly > 0, got (inf, 1.0)"),
        ("grid.ly = inf", "grid: need finite lx, ly > 0, got (1.0, inf)"),
        ("certify.s_min = -inf", "certify.s_min: must be finite"),
        ("certify.s_max = nan", "certify.s_max: must be finite"),
    ], ids=["gamma-nan", "example-gamma-inf", "lx-inf", "ly-inf", "s_min-inf",
            "s_max-nan"])
    def test_non_finite_extent_gamma_or_range_is_bad_config(
        self, tmp_path, capsys, command, lines, err
    ):
        text = "grid.nx = 7\ngrid.ny = 7\nparams.beta = -2\n" + lines + "\n"
        rc = main([command, "--config", write_cfg(tmp_path, text),
                   "--out", str(tmp_path)])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == f"bad config: {err}\n"
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("seed", [[], ["--seed", "5"]])
    @pytest.mark.parametrize("key,value", [("max_iter", "800"), ("n_restarts", "0")])
    def test_negative_iteration_count_is_bad_config(self, tmp_path, capsys, key,
                                                    value, seed):
        text = FAST_SOLVE.format(beta=-2.0, fam="identity").replace(
            f"solver.{key} = {value}\n", f"solver.{key} = -3\n"
        )
        rc = main(["solve-system", "--config", write_cfg(tmp_path, text),
                   "--out", str(tmp_path), *seed])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"bad config: solver.{key}: must be nonnegative\n"
        assert not (tmp_path / "system.csv").exists()

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_bad_tol_is_bad_config(self, tmp_path, capsys, tol):
        text = FAST_SOLVE.format(beta=-2.0, fam="identity")
        text = text.replace("solver.tol = 1e-7", f"solver.tol = {tol}")
        rc = main(["solve-system", "--config", write_cfg(tmp_path, text),
                   "--out", str(tmp_path)])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "bad config: solver.tol: must be a finite positive number\n"
        assert not (tmp_path / "system.csv").exists()

    def test_seed_override_changes_digest_only_not_grid(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_SOLVE.format(beta=0.0, fam="identity"))
        rc = main(
            ["solve-scalar", "--config", cfg, "--out", str(tmp_path), "--seed", "7"]
        )
        assert rc == EXIT_OK
        header = (tmp_path / "scalar.csv").read_text()
        assert "# seed = 7" in header

    def test_repeat_runs_bit_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, FAST_SOLVE.format(beta=-2.0, fam="example"))
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        main(["solve-system", "--config", cfg, "--out", str(out1)])
        main(["solve-system", "--config", cfg, "--out", str(out2)])
        assert (out1 / "u1.field").read_text() == (out2 / "u1.field").read_text()
        assert (out1 / "u2.field").read_text() == (out2 / "u2.field").read_text()
        assert (out1 / "system.csv").read_text() == (out2 / "system.csv").read_text()
