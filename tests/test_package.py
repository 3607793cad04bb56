import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import nehari2d as nh

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(nh.__file__).resolve().parent


def test_every_export_resolves():
    missing = [name for name in nh.__all__ if not hasattr(nh, name)]
    assert missing == []


def test_readme_example_uses_only_exports():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    used = set(re.findall(r"\bnh\.(\w+)", "".join(blocks)))
    assert "solve_system" in used
    assert used - set(nh.__all__) == set()


def readme_public_api() -> set:
    """The names listed in the README's "Public API" section."""
    section = README.read_text().split("## Public API\n", 1)[1].split("\n## ", 1)[0]
    listed = section[section.index("\n- "):]
    return set(re.findall(r"`(\w+)`", listed))


def test_exports_are_the_readme_public_api():
    assert len(nh.__all__) == len(set(nh.__all__))
    assert set(nh.__all__) == readme_public_api()


def test_benchmark_imports_stay_exported():
    # the benchmark under bench/ imports these from the package
    for name in ("StatePair", "load_field", "total_energy", "euler_gradient",
                 "refine_solution", "project_to_nehari", "build_grid"):
        assert name in nh.__all__, name


def test_every_public_layer_function_is_used_or_exported():
    # a public function of a layer module that no other place in the
    # package reads and `__all__` does not export serves only the tests,
    # which keep such code in `tests/`
    trees = {path.stem: ast.parse(path.read_text()) for path in SRC.glob("*.py")}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    unused = [f"{module}.{node.name}"
              for module in ("grid", "coeffs", "energy", "fiber", "spectrum", "solvers")
              for node in trees[module].body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
              and node.name not in used and node.name not in nh.__all__]
    assert unused == []


def test_readme_fiber_settings_are_the_code_constants():
    from nehari2d import fiber
    from oracles import UNIQUENESS_N

    bullet = README.read_text().split("- **Fibering maps**", 1)[1]
    bullet = " ".join(bullet.split("\n- **", 1)[0].split())
    tol = re.search(r"`\|dh/dt_k\| <= (\S+) \* t_k", bullet).group(1)
    steps = re.search(r"fiber Newton takes at most (\d+) steps", bullet).group(1)
    n = re.search(r"on (\d+) log-spaced `t` per axis", bullet).group(1)
    warm = re.search(r"a warm run at most (\d+) steps", bullet).group(1)
    collapse = re.search(r"the quadratic term scaled by (\S+) ", bullet).group(1)
    assert float(tol) == fiber._FIBER_TOL
    assert int(steps) == fiber._FIBER_MAX_ITER
    assert int(n) == UNIQUENESS_N
    assert int(warm) == fiber._WARM_MAX_ITER
    assert float(collapse) == fiber._COLLAPSE


def test_readme_csv_schemas_are_the_code_headers():
    from nehari2d import cli

    text = " ".join(README.read_text().split())
    assert f"`eigen.csv` (schema `{cli.EIGEN_HEADER}`" in text
    assert f"`system.csv` (schema `{cli.SWEEP_HEADER}`" in text


def test_readme_handoff_residual_is_the_code_constant():
    from nehari2d import solvers

    text = " ".join(README.read_text().split())
    res = re.search(r"once the Euler residual is at most (\S+) \(or `100 \* tol`",
                    text).group(1)
    assert float(res) == solvers._HANDOFF_RES


def test_readme_step_rejections_are_the_code_rejects():
    from nehari2d import solvers

    text = " ".join(README.read_text().split())
    listed = re.search(r"or whose normalization or rescale raises (.*?), has "
                       r"energy \+inf and halves the step", text).group(1)
    names = re.findall(r"`(\w+)`", listed)
    assert len(names) == len(set(names))
    assert set(names) == {cls.__name__ for cls in solvers._REJECTS}


def test_readme_backtracking_bounds_are_the_code_constants():
    from nehari2d import solvers

    text = " ".join(README.read_text().split())
    lo, hi = re.search(r"the quadratic step is kept in `\[(\S+) a, (\S+) a\]`",
                       text).groups()
    assert float(lo) == solvers._SHRINK_MIN
    assert float(hi) == solvers._SHRINK_MAX


def test_readme_polish_settings_are_the_code_constants():
    from nehari2d import solvers

    text = " ".join(README.read_text().split())
    steps, inner, rtol = re.search(
        r"Newton takes at most (\d+) steps, each with at most (\d+) MINRES "
        r"iterations, run to relative residual `rtol = (\S+)`", text
    ).groups()
    assert int(steps) == solvers._POLISH_MAX_ITER
    assert int(inner) == solvers._POLISH_INNER_ITER
    assert float(rtol) == solvers._POLISH_RTOL


def test_readme_descent_and_polish_settings_are_the_code_constants():
    from nehari2d import solvers

    text = " ".join(README.read_text().split())
    steps, inner = re.search(
        r"Newton takes at most (\d+) steps, each with at most (\d+) MINRES", text
    ).groups()
    armijo = re.search(r"the Armijo constant is (\S+);", text).group(1)
    tol, window = re.search(
        r"fell by no more than (\S+) \(relative\) over the last (\d+) steps", text
    ).groups()
    assert int(steps) == solvers._POLISH_MAX_ITER
    assert int(inner) == solvers._POLISH_INNER_ITER
    assert float(armijo) == solvers._ARMIJO
    assert float(tol) == solvers._STAGNATION_TOL
    assert int(window) == solvers._STAGNATION_WINDOW


def test_every_error_is_documented_with_its_status_and_label():
    from nehari2d import errors

    classes = [
        obj for obj in vars(errors).values()
        if isinstance(obj, type) and obj.__module__ == errors.__name__
    ]
    assert errors.Nehari2dError in classes
    text = README.read_text()
    for cls in classes:
        assert issubclass(cls, errors.Nehari2dError)
        row = rf"^\| `{cls.__name__}` \| {cls.exit_status} \| `{cls.label}` \|"
        assert re.search(row, text, re.M), cls.__name__


RUNTIME_SCRIPT = r"""
import sys
from pathlib import Path

import nehari2d.cli as C

BASE = (
    "grid.nx = 7\ngrid.ny = 7\nparams.p = 4\nsolver.n_restarts = 0\n"
    "family1.kind = example\nfamily1.gamma = 1\n"
    "family2.kind = example\nfamily2.gamma = 1\n"
)
for command, extra in (("solve-system", "params.beta = -2\n"),
                       ("sweep", "sweep.betas = -1.5, 2\n")):
    assert C.run(command, C.parse_config(BASE + extra), Path(command)) == 0
print(sorted(name for name in sys.modules if name.startswith("scipy")))
"""


def test_runtime_loads_no_scipy(tmp_path):
    # numpy is the only runtime dependency: a fresh interpreter imports the
    # command line, runs a competitive solve (descent and Newton-MINRES
    # polish) and a sweep, and has loaded no scipy module, eagerly or lazily
    src = str(Path(nh.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", RUNTIME_SCRIPT], cwd=tmp_path, capture_output=True,
        text=True, timeout=300, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
