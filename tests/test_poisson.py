"""Structured-grid Poisson solvers (Dirichlet and Neumann closures).

Checks the five-point matrices against manufactured solutions, the
residual contracts of both solves, the transform solves and the matrix-free
stencil against a sparse LU and a product with the assembled matrix, the
M-matrix sign structure that later guarantees positivity of the transport
step, and the failure modes (incompatible Neumann data, a solve that misses
its rounding bound).
"""

import numpy as np
import pytest
from scipy.sparse.linalg import splu

from ehd2d import (
    Grid2D,
    ScalarField,
    apply_dirichlet_laplacian,
    integrate,
    laplacian_matrix,
    lp_norm,
    solve_dirichlet,
    solve_neumann,
)
from ehd2d import poisson
from ehd2d.errors import Incompatible, NonConvergence
from ehd2d.grid import ROUNDING
from ehd2d.poisson import _stencil


def manufactured_error(n):
    """L-inf error of the Dirichlet solve against sin(pi x) sin(pi y)."""
    g = Grid2D(n, n)
    X, Y = g.cell_centers()
    exact = ScalarField(g, np.sin(np.pi * X) * np.sin(np.pi * Y))
    rhs = ScalarField(g, -2.0 * np.pi ** 2 * exact.data)
    phi = solve_dirichlet(rhs)
    return lp_norm(ScalarField(g, phi.data - exact.data), np.inf)


class TestDirichletSolve:
    def test_manufactured_solution_second_order(self):
        """Observed order on sin(pi x) sin(pi y) must sit in [1.8, 2.2]."""
        errs = [manufactured_error(n) for n in (32, 64, 128)]
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        for o in orders:
            assert 1.8 <= o <= 2.2, f"orders {orders}, errors {errs}"

    def test_round_trip(self):
        """solve(apply(f)) recovers f for fields vanishing at the walls."""
        g = Grid2D(40, 28)
        rng = np.random.default_rng(2)
        f = ScalarField(g, rng.standard_normal((28, 40)))
        back = solve_dirichlet(apply_dirichlet_laplacian(f))
        err = np.abs(back.data - f.data).max()
        assert err <= 1e-9, f"round-trip error {err:.3e}"

    def test_residual_contract(self):
        g = Grid2D(33, 47, 3.0, 2.0)
        rng = np.random.default_rng(7)
        rhs = ScalarField(g, rng.standard_normal((47, 33)))
        phi = solve_dirichlet(rhs)
        r = apply_dirichlet_laplacian(phi).data - rhs.data
        res = np.sqrt(g.vol * (r * r).sum())
        assert res <= 1e-10 * (1 + np.sqrt(g.vol * (rhs.data ** 2).sum()))

    def test_self_adjoint(self):
        g = Grid2D(15, 12)
        rng = np.random.default_rng(4)
        a = ScalarField(g, rng.standard_normal((12, 15)))
        b = ScalarField(g, rng.standard_normal((12, 15)))
        lhs = g.vol * float((apply_dirichlet_laplacian(a).data * b.data).sum())
        rhs = g.vol * float((a.data * apply_dirichlet_laplacian(b).data).sum())
        assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs))

    def test_discrete_maximum_principle(self):
        """Nonpositive right-hand side gives a nonnegative potential: the
        inverse of the negated matrix is entrywise nonnegative."""
        g = Grid2D(21, 19)
        rng = np.random.default_rng(12)
        for _ in range(5):
            rhs = ScalarField(g, -np.abs(rng.standard_normal((19, 21))))
            phi = solve_dirichlet(rhs)
            assert phi.data.min() >= -1e-13, (
                f"maximum principle violated: min {phi.data.min():.3e}"
            )

    def test_zero_rhs_gives_zero(self):
        g = Grid2D(9, 9)
        phi = solve_dirichlet(ScalarField.zeros(g))
        assert np.abs(phi.data).max() == 0.0


class TestMatrixStructure:
    def test_dirichlet_row_signs(self):
        """Off-diagonals nonnegative, diagonal negative: a (negated)
        M-matrix, which is what makes the implicit transport positive."""
        A = laplacian_matrix(Grid2D(10, 7), "dirichlet").tocoo()
        for i, j, v in zip(A.row, A.col, A.data):
            if i == j:
                assert v < 0
            else:
                assert v > 0

    def test_neumann_column_sums_vanish(self):
        """Zero column sums are the matrix form of mass conservation."""
        A = laplacian_matrix(Grid2D(9, 11), "neumann")
        colsum = np.asarray(abs(A).T @ np.ones(9 * 11) - 2 * abs(A.diagonal()))
        s = np.asarray(A.T @ np.ones(9 * 11))
        assert np.abs(s).max() <= 1e-13, "Neumann matrix does not conserve"
        assert colsum.shape == (99,)

    def test_dirichlet_boundary_penalty(self):
        """Corner diagonal carries the ghost closure -3/h^2 in each
        direction."""
        g = Grid2D(5, 5)
        A = laplacian_matrix(g, "dirichlet").tocsr()
        corner = A[0, 0]
        assert corner == pytest.approx(-3.0 / g.hx ** 2 - 3.0 / g.hy ** 2)


class TestNeumannSolve:
    def test_solves_mean_free_data(self):
        g = Grid2D(30, 26, 2.0, 1.0)
        rng = np.random.default_rng(17)
        raw = rng.standard_normal((26, 30))
        raw -= raw.mean()
        rhs = ScalarField(g, raw)
        q = solve_neumann(rhs)
        A = laplacian_matrix(g, "neumann")
        r = (A @ q.data.ravel() - rhs.data.ravel())
        r -= r.mean()
        res = np.sqrt(g.vol * (r * r).sum())
        assert res <= 1e-10 * (1 + np.sqrt(g.vol * (raw ** 2).sum()))

    def test_output_has_zero_mean(self):
        g = Grid2D(14, 14)
        rng = np.random.default_rng(23)
        raw = rng.standard_normal((14, 14))
        raw -= raw.mean()
        q = solve_neumann(ScalarField(g, raw))
        assert abs(integrate(q)) <= 1e-12

    def test_incompatible_data_rejected(self):
        """A right-hand side with net mass has no solution with no-flux
        walls; the solver must refuse rather than silently project."""
        g = Grid2D(10, 10)
        with pytest.raises(Incompatible):
            solve_neumann(ScalarField.full(g, 1.0))

    def test_constant_shift_invisible(self):
        """Adding a constant to the solution changes nothing measurable;
        the returned representative is the zero-mean one."""
        g = Grid2D(17, 13)
        rng = np.random.default_rng(29)
        raw = rng.standard_normal((13, 17))
        raw -= raw.mean()
        q1 = solve_neumann(ScalarField(g, raw))
        q2 = solve_neumann(ScalarField(g, raw.copy()))
        assert np.array_equal(q1.data, q2.data), "solve is not deterministic"


def _reference_solve(g, b, boundary):
    """Lap_h x = b by sparse LU of laplacian_matrix; for "neumann" one cell
    is pinned (the pinned equation is implied for zero-integral data) and
    the mean removed afterwards."""
    A = laplacian_matrix(g, boundary)
    rhs = b.ravel().copy()
    if boundary == "neumann":
        A = A.tolil()
        A[0, :] = 0.0
        A[0, 0] = 1.0
        rhs[0] = 0.0
    x = splu(A.tocsc()).solve(rhs)
    if boundary == "neumann":
        x -= x.mean()
    return x.reshape(b.shape)


GRIDS = [(7, 5, 1.3, 0.7), (3, 11, 0.4, 2.5), (12, 9, 2.0, 1.1)]


class TestTransformSolves:
    """The transform solves against a sparse LU of the assembled operator,
    and the residual stencil against the assembled operator itself, on
    grids with nx != ny and lx != ly."""

    @pytest.mark.parametrize("nx, ny, lx, ly", GRIDS)
    def test_dirichlet_matches_sparse_lu(self, nx, ny, lx, ly):
        g = Grid2D(nx, ny, lx, ly)
        b = np.random.default_rng(nx * ny).standard_normal((ny, nx))
        ref = _reference_solve(g, b, "dirichlet")
        got = solve_dirichlet(ScalarField(g, b)).data
        err = np.linalg.norm(got - ref) / np.linalg.norm(ref)
        assert err <= 1e-12, f"relative error {err:.3e}"

    @pytest.mark.parametrize("nx, ny, lx, ly", GRIDS)
    def test_neumann_matches_sparse_lu(self, nx, ny, lx, ly):
        g = Grid2D(nx, ny, lx, ly)
        b = np.random.default_rng(nx * ny + 1).standard_normal((ny, nx))
        b -= b.mean()
        ref = _reference_solve(g, b, "neumann")
        got = solve_neumann(ScalarField(g, b)).data
        err = np.linalg.norm(got - ref) / np.linalg.norm(ref)
        assert err <= 1e-12, f"relative error {err:.3e}"

    @pytest.mark.parametrize("boundary", ["dirichlet", "neumann", "value"])
    @pytest.mark.parametrize("nx, ny, lx, ly", GRIDS)
    def test_stencil_matches_matrix(self, nx, ny, lx, ly, boundary):
        g = Grid2D(nx, ny, lx, ly)
        x = np.random.default_rng(nx + ny).standard_normal((ny, nx))
        ref = laplacian_matrix(g, boundary) @ x.ravel()
        got = _stencil(x, g, boundary).ravel()
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    def test_spectra_are_kept_read_only(self):
        """A step asks for the same 1-D spectra many times; they are computed
        once, and nobody may change the kept copy."""
        lam = poisson._lap1d_eigenvalues(9, 0.3, "dirichlet")
        assert poisson._lap1d_eigenvalues(9, 0.3, "dirichlet") is lam
        with pytest.raises(ValueError):
            lam[0] = 0.0


def _bump(g):
    X, Y = g.cell_centers()
    return np.exp(-((X - 0.4 * g.lx) ** 2 + (Y - 0.6 * g.ly) ** 2) / 0.5)


class TestRoundingBound:
    """Both solves pass while the residual stays within the rounding a
    direct solve leaves, ROUNDING * (|b| + ||Lap_h|| |x|) in the grid L2
    norm with ||Lap_h|| <= 4/hx^2 + 4/hy^2. That bound grows with the mesh,
    so fine and thin grids pass, and it is tight enough that a solve off by
    1e-8 fails."""

    @pytest.mark.parametrize("nx, ny", [(8192, 3), (4096, 16)])
    @pytest.mark.parametrize("boundary", ["dirichlet", "neumann"])
    def test_fine_thin_grids_pass(self, nx, ny, boundary):
        g = Grid2D(nx, ny, 4.0, 4.0)
        b = _bump(g)
        if boundary == "neumann":
            b -= b.mean()
            x = solve_neumann(ScalarField(g, b)).data
        else:
            x = solve_dirichlet(ScalarField(g, b)).data
        r = _stencil(x, g, boundary) - b
        if boundary == "neumann":
            r -= r.mean()

        def norm(a):
            return np.sqrt(g.vol * (a * a).sum())

        norm_lap = 4.0 / g.hx ** 2 + 4.0 / g.hy ** 2
        assert norm(r) <= ROUNDING * (norm(b) + norm_lap * norm(x))

    @pytest.mark.parametrize("solve", [solve_dirichlet, solve_neumann])
    def test_wrong_spectrum_fails(self, solve, monkeypatch):
        exact = poisson._lap1d_eigenvalues
        monkeypatch.setattr(poisson, "_lap1d_eigenvalues",
                            lambda n, h, boundary: exact(n, h, boundary) * (1.0 + 1e-8))
        g = Grid2D(64, 64, 4.0, 4.0)
        b = _bump(g)
        b -= b.mean()
        with pytest.raises(NonConvergence):
            solve(ScalarField(g, b))
