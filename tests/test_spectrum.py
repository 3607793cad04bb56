import math

import numpy as np
import pytest

import nehari2d.grid as G
from nehari2d import GridSpec, build_grid, principal_eigenpair
from nehari2d.energy import CellSample
from nehari2d.errors import InvalidParams
from nehari2d.solvers import conservative_mu1
from nehari2d.spectrum import (
    ADMISSIBLE,
    ADMISSIBLE_WEAK,
    INADMISSIBLE,
    admissibility,
    _sine_matrix,
    apply_neg_laplacian,
    make_poisson_solver,
)

from conftest import quadrature_stiffness


class TestPoissonSolver:
    def test_quadrature_solver_inverts_quadrature_stiffness(self):
        grid = build_grid(GridSpec(7, 9, 1.0, 1.3))
        K = quadrature_stiffness(grid)
        rng = np.random.default_rng(0)
        b = rng.standard_normal(grid.shape)
        x = make_poisson_solver(grid)(b)
        assert np.max(np.abs(K @ x.ravel() - b.ravel())) <= 1e-12
        stack = rng.standard_normal((2, *grid.shape))
        xs = make_poisson_solver(grid)(stack)
        for i in range(2):
            assert np.max(np.abs(K @ xs[i].ravel() - stack[i].ravel())) <= 1e-12

    @pytest.mark.parametrize("nx,ny,lx,ly", [
        (9, 5, 2.0, 0.5), (63, 31, 1.0, 1.0), (31, 63, 1.0, 2.0),
        (127, 127, 1.0, 1.0),
    ], ids=["9x5", "63x31", "31x63", "127x127"])
    def test_matches_sine_transform_oracle(self, nx, ny, lx, ly):
        # the oracle reads the symbol off the quadrature stiffness itself:
        # scipy's DST-I of the operator applied to the inverse transform of
        # all-ones
        from scipy.fft import dstn

        grid = build_grid(GridSpec(nx, ny, lx, ly))

        def operator(x):
            return G.scatter_cells(grid, None, *G.cell_gradients(x, grid))

        def dst(a):
            return dstn(a, type=1, axes=(-2, -1))

        norm = 4.0 * (nx + 1) * (ny + 1)
        symbol = dst(operator(dst(np.ones(grid.shape)) / norm))
        b = np.random.default_rng(nx + ny).standard_normal((2, nx, ny))
        x = make_poisson_solver(grid)(b)
        ref = dst(dst(b) / symbol) / norm
        assert np.max(np.abs(x - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert np.linalg.norm(operator(x) - b) <= 1e-11 * np.linalg.norm(b)

    @pytest.mark.parametrize("n", [2, 9, 31, 63, 127, 255])
    def test_sine_matrix_is_a_symmetric_involution(self, n):
        S = _sine_matrix(n)
        assert np.array_equal(S, S.T)
        assert np.max(np.abs(S @ S - np.eye(n))) <= 1e-13

    @pytest.mark.parametrize("lead", [(), (2,)], ids=["field", "stack"])
    def test_out_receives_the_same_bits(self, grid31, lead):
        solve = make_poisson_solver(grid31)
        b = np.random.default_rng(3).standard_normal((*lead, *grid31.shape))
        b0, out = b.copy(), np.full_like(b, np.nan)
        assert solve(b, out=out) is out
        assert np.array_equal(out, solve(b)) and np.array_equal(b, b0)


class TestNegLaplacian:
    def test_stack_is_applied_per_component(self):
        grid = build_grid(GridSpec(7, 9, 1.0, 1.3))
        stack = np.random.default_rng(1).standard_normal((2, *grid.shape))
        out = apply_neg_laplacian(stack, grid)
        assert out.shape == stack.shape
        for i in range(2):
            assert np.array_equal(out[i], apply_neg_laplacian(stack[i], grid))


class TestPrincipalEigenpair:
    @pytest.mark.parametrize(
        "nx,ny,lx,ly",
        [(7, 7, 1.0, 1.0), (9, 5, 2.0, 0.5), (15, 23, 1.0, 1.7)],
        ids=["7x7", "9x5", "15x23"],
    )
    def test_matches_dense_eigensolver(self, nx, ny, lx, ly):
        # the 5-point matrix, assembled column by column from the stencil
        grid = build_grid(GridSpec(nx, ny, lx, ly))
        n = nx * ny
        cols = apply_neg_laplacian(np.eye(n).reshape(n, nx, ny), grid)
        evals, evecs = np.linalg.eigh(cols.reshape(n, n).T)
        phi = evecs[:, 0].reshape(nx, ny)
        phi *= np.sign(phi.sum()) / math.sqrt(np.sum(phi * phi) * grid.cell_area)
        pair = principal_eigenpair(grid)
        assert abs(pair.mu - evals[0]) <= 1e-13 * evals[0]
        assert np.max(np.abs(pair.phi.values - phi)) <= 1e-12

    def test_rectangle_refinement(self):
        # lx = 2, ly = 1: continuum value 5 pi^2 / 4
        target = 5.0 * math.pi**2 / 4.0
        errs = []
        for n in (15, 31, 63):
            grid = build_grid(GridSpec(n, n, 2.0, 1.0))
            pair = principal_eigenpair(grid)
            errs.append(abs(pair.mu - target))
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] / target < 2e-3

    def test_positive_eigenvector(self, grid31):
        pair = principal_eigenpair(grid31)
        assert np.min(pair.phi.values) > 0.0

    def test_l2_normalized(self, grid31):
        pair = principal_eigenpair(grid31)
        nrm = math.sqrt(np.sum(pair.phi.values**2) * grid31.cell_area)
        assert nrm == pytest.approx(1.0, abs=1e-12)

    def test_residual_small(self, grid31):
        pair = principal_eigenpair(grid31)
        assert pair.residual <= 1e-10 * (1.0 + pair.mu)

    def test_quadrature_rayleigh_matches_tangent_formula(self):
        for spec in (GridSpec(15, 15), GridSpec(31, 31), GridSpec(63, 63),
                     GridSpec(9, 5, 2.0, 0.5)):
            grid = build_grid(spec)
            pair = principal_eigenpair(grid)
            (num,), (den,), _pp = CellSample(pair.phi.values[None], grid).integrals(2.0)
            assert abs(num / den - pair.mu_quad) <= 1e-13 * pair.mu_quad

    def test_two_notions_bracket_continuum(self):
        # stencil below, quadrature above, both converging at O(h^2)
        target = 2.0 * math.pi**2
        gaps = []
        for n in (15, 31, 63):
            grid = build_grid(GridSpec(n, n, 1.0, 1.0))
            pair = principal_eigenpair(grid)
            assert pair.mu < target < pair.mu_quad
            gaps.append(pair.mu_quad - pair.mu)
        assert math.log2(gaps[0] / gaps[1]) >= 1.9
        assert math.log2(gaps[1] / gaps[2]) >= 1.9

    @pytest.mark.parametrize("nx,ny,lx,ly", [
        (2, 2, 1.0, 1.0), (2, 9, 1.0, 3.0), (9, 2, 0.1, 5.0), (3, 40, 7.0, 0.2),
        (64, 2, 1.0, 1.0),
    ])
    def test_conservative_eigenvalue_is_the_stencil_one(self, nx, ny, lx, ly):
        # down to two nodes on an axis the quadrature Rayleigh quotient (its
        # tan^2 formula) lies above the stencil eigenvalue (sin^2)
        grid = build_grid(GridSpec(nx, ny, lx, ly))
        pair = principal_eigenpair(grid)
        (num,), (den,), _pp = CellSample(pair.phi.values[None], grid).integrals(2.0)
        assert pair.mu < num / den and pair.mu < pair.mu_quad
        assert conservative_mu1(grid) == pair.mu

    def test_poincare_with_conservative_eigenvalue(self, grid31):
        mu = conservative_mu1(grid31)
        rng = np.random.default_rng(3)
        for _ in range(100):
            f = rng.standard_normal(grid31.shape)
            (num,), (den,), _pp = CellSample(f[None], grid31).integrals(2.0)
            assert num >= mu * den * (1.0 - 1e-12)


class TestAdmissible:
    """The verdict of `admissibility(lams, p, gamma, nu, mu1)`."""

    def test_zero_lambdas_always_admissible(self):
        assert admissibility((0.0, 0.0), 4.0, 1.0, 1.0, 19.7)[0] == ADMISSIBLE

    def test_threshold_shrinks_with_gamma(self):
        # gamma close to p - 2 pushes the strong threshold toward zero
        mu1 = 2.0 * math.pi**2
        lams = (mu1 / 2.0, mu1 / 2.0)
        assert admissibility(lams, 4.0, 1.999, 1.0, mu1)[0] != ADMISSIBLE

    def test_example_numbers(self):
        # p = 4, gamma = 1, nu = 1, mu1 = 2 pi^2: threshold is pi^2 = 9.87
        mu1 = 2.0 * math.pi**2
        assert admissibility((9.0, 9.0), 4.0, 1.0, 1.0, mu1)[0] == ADMISSIBLE

    def test_weak_band(self):
        # strong threshold = 5, weak = 10
        assert admissibility((8.0, 0.0), 4.0, 1.0, 1.0, 10.0)[0] == ADMISSIBLE_WEAK

    def test_inadmissible(self):
        assert admissibility((11.0, 0.0), 4.0, 1.0, 1.0, 10.0)[0] == INADMISSIBLE

    def test_requires_positive_mu(self):
        with pytest.raises(InvalidParams):
            admissibility((0.0, 0.0), 4.0, 1.0, 1.0, 0.0)
