"""Independent reference computations used by the test suite.

Everything here deliberately avoids the package's quadrature and solver
paths: the ground-level oracle discretizes with the plain 5-point stencil
and nodal sums, solves with sparse LU, and iterates a semi-implicit
normalized gradient flow.  Agreement with the package is then evidence,
not circularity.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


def neg_laplacian_matrix(n, hx, hy):
    """5-point -Laplace on an n x n interior grid, row-major (i outer)."""
    T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    I = sp.identity(n)
    return sp.kron(T / hx**2, I) + sp.kron(I, T / hy**2)


def semilinear_ground_level(
    n: int,
    p: float = 4.0,
    lx: float = 1.0,
    ly: float = 1.0,
    coeff: float = 1.0,
    tau: float = 0.1,
    tol: float = 1e-13,
    max_iter: int = 5000,
):
    """Ground level of -Lap z = coeff * |z|^(p-2) z with zero boundary.

    Semi-implicit normalized gradient flow on the constrained quotient
    a(z) / b(z)^(2/p): diffuse implicitly, feed back the nonlinearity,
    renormalize to b(z) = 1.  Returns (level, field) on the nodal grid.
    """
    hx, hy = lx / (n + 1), ly / (n + 1)
    vol = hx * hy
    A = neg_laplacian_matrix(n, hx, hy)
    solve = spla.factorized((sp.identity(n * n) + tau * A).tocsc())
    X, Y = np.meshgrid(
        (1 + np.arange(n)) * hx, (1 + np.arange(n)) * hy, indexing="ij"
    )
    z = (np.sin(np.pi * X / lx) * np.sin(np.pi * Y / ly)).ravel()

    def b(v):
        return float(np.sum(np.abs(v) ** p)) * vol

    def a(v):
        return float(v @ (A @ v)) * vol

    z = z / b(z) ** (1.0 / p)
    S_prev = np.inf
    for _ in range(max_iter):
        S = a(z)
        w = solve(z + tau * S * np.abs(z) ** (p - 2.0) * z)
        z = w / b(w) ** (1.0 / p)
        if abs(S - S_prev) <= tol * max(1.0, abs(S)):
            break
        S_prev = S
    S = a(z)
    # rescale onto a(w) = coeff * int|w|^p and read off the level
    scale = (S / coeff) ** (1.0 / (p - 2.0))
    level = (p - 2.0) / (2.0 * p) * scale**2 * S
    return level, (scale * z).reshape(n, n)


def stencil_semilinear_gradient(u1, u2, lam1, lam2, beta, p, hx, hy):
    """Pointwise 5-point residual of the constant-coefficient system.

    Returns (-Lap u_i - lam_i u_i - g_i(u1, u2)) for i = 1, 2 as nodal
    arrays; an independent check of the package's exact energy gradient
    in the identity-profile case.
    """

    def neg_lap(v):
        P = np.zeros((v.shape[0] + 2, v.shape[1] + 2))
        P[1:-1, 1:-1] = v
        return (
            2.0 * (1.0 / hx**2 + 1.0 / hy**2) * P[1:-1, 1:-1]
            - (P[:-2, 1:-1] + P[2:, 1:-1]) / hx**2
            - (P[1:-1, :-2] + P[1:-1, 2:]) / hy**2
        )

    def spow(t, q):
        return np.sign(t) * np.abs(t) ** q

    g1 = spow(u1, p - 1.0) + beta * spow(u1, p / 2.0 - 1.0) * np.abs(u2) ** (p / 2.0)
    g2 = spow(u2, p - 1.0) + beta * spow(u2, p / 2.0 - 1.0) * np.abs(u1) ** (p / 2.0)
    return neg_lap(u1) - lam1 * u1 - g1, neg_lap(u2) - lam2 * u2 - g2


def central_difference(f, x0: float, h: float) -> float:
    return (f(x0 + h) - f(x0 - h)) / (2.0 * h)


def quasilinear_strong_form(X, Y, profiles, lams, beta, p):
    """The continuum Euler operator of the system energy,

        -div(A_i(u_i) grad u_i) + A_i'(u_i) |grad u_i|^2 / 2
            - lambda_i u_i - d_i G_beta(u),

    at the points (X, Y) of the unit square, for the fields
    u1 = sin(pi x) sin(pi y) and u2 = (1 + x) sin(pi x) sin(pi y) / 2.
    The derivatives of the fields are written out by hand; `profiles`
    holds one (A, A') pair of callables per component.  Returns the two
    component arrays.
    """
    pi = np.pi
    S = np.sin(pi * X) * np.sin(pi * Y)
    Sx = pi * np.cos(pi * X) * np.sin(pi * Y)
    Sy = pi * np.sin(pi * X) * np.cos(pi * Y)
    lap_S = -2.0 * pi**2 * S
    w = 0.5 * (1.0 + X)
    fields = (S, w * S)
    grads = ((Sx, Sy), (0.5 * S + w * Sx, w * Sy))
    laps = (lap_S, Sx + w * lap_S)
    half = p / 2.0
    out = []
    for i, j in ((0, 1), (1, 0)):
        A, dA = profiles[i]
        u, (gx, gy) = fields[i], grads[i]
        gsq = gx * gx + gy * gy
        # -div(A(u) grad u) = -A(u) lap u - A'(u) |grad u|^2
        dG = (np.abs(u) ** (p - 2.0) * u
              + beta * np.abs(u) ** (half - 2.0) * u * np.abs(fields[j]) ** half)
        out.append(-A(u) * laps[i] - 0.5 * dA(u) * gsq - lams[i] * u - dG)
    return out
