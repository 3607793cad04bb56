import numpy as np
import pytest
from hypothesis import settings

from nehari2d import (
    GridSpec,
    ProblemParams,
    ScalarField,
    SolverOptions,
    StatePair,
    build_grid,
    example_family,
    identity_family,
)
from nehari2d.grid import cell_gradients


# property tests: reproducible examples, no wall-clock deadline
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)


def zero_field(grid):
    return ScalarField(np.zeros(grid.shape), grid.spec)


def positive_state(grid, seed):
    """A random positive pair, as a (2, nx, ny) stack."""
    rng = np.random.default_rng(seed)
    return np.stack(
        [np.abs(rng.standard_normal(grid.shape)) + 0.1 for _ in range(2)]
    )


def quadrature_stiffness(grid):
    """K = sum over cells of gx_i gx_j + gy_i gy_j, the gradient term's
    stiffness as a dense matrix on the raveled nodes, assembled from the
    cell gradients of unit vectors."""
    n = grid.shape[0] * grid.shape[1]
    gx, gy = cell_gradients(np.eye(n).reshape(n, *grid.shape), grid)
    gx, gy = gx.reshape(n, -1), gy.reshape(n, -1)
    return gx @ gx.T + gy @ gy.T


@pytest.fixture(scope="session")
def grid7():
    return build_grid(GridSpec(7, 7, 1.0, 1.0))


@pytest.fixture(scope="session")
def grid15():
    return build_grid(GridSpec(15, 15, 1.0, 1.0))


@pytest.fixture(scope="session")
def grid31():
    return build_grid(GridSpec(31, 31, 1.0, 1.0))


@pytest.fixture(scope="session")
def grid63():
    return build_grid(GridSpec(63, 63, 1.0, 1.0))


@pytest.fixture(scope="session")
def identity():
    return identity_family(1.0)


@pytest.fixture(scope="session")
def example1():
    return example_family(1.0)


@pytest.fixture
def params_p4():
    """p = 4, gamma = 1, decoupled, zero linear terms."""
    return ProblemParams(0.0, 0.0, 0.0, 4.0, 1.0)


def random_state(grid, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return StatePair(
        ScalarField(scale * rng.standard_normal(grid.shape), grid.spec),
        ScalarField(scale * rng.standard_normal(grid.shape), grid.spec),
    )


def segregated_random_state(grid, seed=0):
    """Random positive bumps in opposite halves, as a (2, nx, ny) stack;
    projectable for beta < 0."""
    rng = np.random.default_rng(seed)
    s = grid.spec
    X, Y = grid.node_mesh()

    def bump(cx, cy, w, amp):
        return amp * np.exp(-((X - cx) ** 2 + (Y - cy) ** 2) / (2.0 * w**2))

    w1 = s.lx * rng.uniform(0.06, 0.14)
    w2 = s.lx * rng.uniform(0.06, 0.14)
    u1 = bump(s.lx * rng.uniform(0.15, 0.3), s.ly * rng.uniform(0.3, 0.7), w1,
              rng.uniform(0.5, 2.0))
    u2 = bump(s.lx * rng.uniform(0.7, 0.85), s.ly * rng.uniform(0.3, 0.7), w2,
              rng.uniform(0.5, 2.0))
    return np.stack((u1, u2))


@pytest.fixture(scope="session")
def quick_opts():
    return SolverOptions(tol=1e-8, n_restarts=1, max_iter=1500, seed=0)


@pytest.fixture(scope="session")
def scalar_cache():
    """Session cache of scalar ground-state solves keyed by the caller."""
    return {}


class StopSolve(Exception):
    """Raised by `capture_first_descent` to end a solve at its first descent."""


def capture_first_descent(monkeypatch, solvers):
    """Make the first `_descend` call of the module `solvers` record its
    start point, energy and callbacks and raise StopSolve; returns the dict
    they are recorded in."""
    captured = {}

    def capture(x, energy_val, gradient, direction, retract, max_iter, stop):
        captured.update(x=x, energy=energy_val, gradient=gradient,
                        direction=direction, retract=retract)
        raise StopSolve

    monkeypatch.setattr(solvers, "_descend", capture)
    return captured
