"""Grid, field containers, and the discrete calculus.

The whole energy bookkeeping downstream rests on two exact identities of
the staggered-grid operators checked here: summation-by-parts duality
between gradient and divergence, and the telescoping of divergence sums
(total outflux of an interior-supported face field is exactly zero).
"""

import numpy as np
import pytest

from ehd2d import (
    Grid2D,
    MacVectorField,
    ScalarField,
    apply_dirichlet_laplacian,
    cell_inner,
    div_from_faces,
    face_inner,
    grad_norm_sq,
    grad_to_faces,
    h1_seminorm,
    integrate,
    kinetic_energy,
    load_matrix,
    lp_norm,
    save_matrix,
)


def random_state(seed, nx=24, ny=17, lx=1.0, ly=1.0):
    """Grid plus a reproducible random cell field and interior face field."""
    g = Grid2D(nx, ny, lx, ly)
    rng = np.random.default_rng(seed)
    f = ScalarField(g, rng.standard_normal((ny, nx)))
    u = MacVectorField.zeros(g)
    u.ux[:, 1:-1] = rng.standard_normal((ny, nx - 1))
    u.uy[1:-1, :] = rng.standard_normal((ny - 1, nx))
    return g, f, u


class TestGridGeometry:
    def test_spacings(self):
        g = Grid2D(10, 20, 2.0, 5.0)
        assert g.hx == pytest.approx(0.2)
        assert g.hy == pytest.approx(0.25)
        assert g.vol == pytest.approx(0.05)
        assert g.area == pytest.approx(10.0)

    def test_cell_centers_are_midpoints(self):
        g = Grid2D(4, 4)
        X, Y = g.cell_centers()
        assert X[0, 0] == pytest.approx(0.125)
        assert Y[-1, -1] == pytest.approx(0.875)

    def test_too_small_grid_rejected(self):
        with pytest.raises(ValueError):
            Grid2D(2, 8)
        with pytest.raises(ValueError):
            Grid2D(8, 8, lx=-1.0)


class TestFieldContainers:
    def test_scalar_field_shape_checked(self):
        g = Grid2D(6, 5)
        with pytest.raises(ValueError):
            ScalarField(g, np.zeros((6, 5)))  # transposed

    def test_scalar_field_rejects_nan(self):
        g = Grid2D(4, 4)
        data = np.zeros((4, 4))
        data[1, 2] = np.nan
        with pytest.raises(ValueError):
            ScalarField(g, data)

    def test_from_function(self):
        g = Grid2D(16, 16)
        f = ScalarField.from_function(g, lambda x, y: x + 2 * y)
        X, Y = g.cell_centers()
        assert np.allclose(f.data, X + 2 * Y)

    def test_mac_shapes(self):
        g = Grid2D(7, 5)
        u = MacVectorField.zeros(g)
        assert u.ux.shape == (5, 8)
        assert u.uy.shape == (6, 7)

    def test_no_slip_assertion(self):
        g = Grid2D(5, 5)
        u = MacVectorField.zeros(g)
        u.ux[2, 0] = 1e-3
        with pytest.raises(ValueError):
            u.assert_no_slip(1e-6)

    def test_max_speed(self):
        g, _, u = random_state(11)
        expect = max(np.abs(u.ux).max(), np.abs(u.uy).max())
        assert u.max_speed() == pytest.approx(expect)


class TestQuadrature:
    def test_integrate_linear_exactly(self):
        """Midpoint quadrature is exact on linears: integral of x over the
        unit square is 1/2 to machine precision."""
        g = Grid2D(64, 64)
        f = ScalarField.from_function(g, lambda x, y: x)
        assert integrate(f) == pytest.approx(0.5, abs=1e-14)

    def test_integrate_constant_any_box(self):
        g = Grid2D(12, 9, 4.0, 2.5)
        f = ScalarField.full(g, 3.0)
        assert integrate(f) == pytest.approx(3.0 * g.area, rel=1e-14)

    def test_lp_norms(self):
        g = Grid2D(8, 8, 2.0, 2.0)
        f = ScalarField.full(g, -2.0)
        assert lp_norm(f, 1) == pytest.approx(2.0 * g.area)
        assert lp_norm(f, 2) == pytest.approx(2.0 * np.sqrt(g.area))
        assert lp_norm(f, np.inf) == pytest.approx(2.0)

    def test_lp_triangle_inequality(self):
        g = Grid2D(16, 16)
        rng = np.random.default_rng(5)
        for p in (1, 2, 4, np.inf):
            for _ in range(20):
                a = ScalarField(g, rng.standard_normal((16, 16)))
                b = ScalarField(g, rng.standard_normal((16, 16)))
                s = ScalarField(g, a.data + b.data)
                lhs = lp_norm(s, p)
                rhs = lp_norm(a, p) + lp_norm(b, p)
                assert lhs <= rhs * (1 + 1e-12), (
                    f"triangle inequality violated for p={p}: {lhs} > {rhs}"
                )


class TestDiscreteCalculus:
    def test_summation_by_parts(self):
        """<grad f, g>_faces == -<f, div g>_cells exactly, for face fields
        supported away from the boundary."""
        for seed in range(8):
            g, f, u = random_state(seed)
            lhs = face_inner(grad_to_faces(f), u)
            rhs = -cell_inner(f, div_from_faces(u))
            assert abs(lhs - rhs) <= 1e-12 * (1 + abs(lhs)), (
                f"duality broken at seed {seed}: {lhs} vs {-rhs}"
            )

    def test_divergence_telescopes(self):
        """Total divergence of an interior-supported face field vanishes
        exactly (the discrete divergence theorem with no boundary flux)."""
        for seed in range(8):
            g, _, u = random_state(seed, nx=31, ny=22)
            total = integrate(div_from_faces(u))
            assert abs(total) <= 1e-13 * (1 + u.max_speed()), (
                f"nonzero net flux {total} at seed {seed}"
            )

    def test_div_of_dirichlet_grad_is_laplacian(self):
        """div(grad(., dirichlet)) agrees with the assembled five-point matrix."""
        g, f, _ = random_state(3, nx=13, ny=18)
        via_ops = div_from_faces(grad_to_faces(f, dirichlet=True))
        via_mat = apply_dirichlet_laplacian(f)
        err = np.abs(via_ops.data - via_mat.data).max()
        assert err <= 1e-11, f"operator/matrix mismatch {err:.3e}"

    def test_gradient_of_constant_interior_zero(self):
        g = Grid2D(9, 9)
        f = ScalarField.full(g, 7.0)
        gr = grad_to_faces(f)
        assert np.abs(gr.ux).max() == 0.0
        assert np.abs(gr.uy).max() == 0.0

    def test_dirichlet_gradient_sees_the_wall(self):
        """With the Dirichlet closure a constant has steep wall gradients
        (ghost = -interior), used by the electric-energy terms."""
        g = Grid2D(8, 8)
        f = ScalarField.full(g, 1.0)
        gr = grad_to_faces(f, dirichlet=True)
        assert gr.ux[0, 0] == pytest.approx(2.0 / g.hx)
        assert gr.ux[0, -1] == pytest.approx(-2.0 / g.hx)

    def test_h1_seminorm_dirichlet_matches_matrix_quadratic_form(self):
        """The Dirichlet seminorm is exactly -<f, Lap_h f>*vol; this is the
        duality the energy identity relies on."""
        for seed in range(6):
            g, f, _ = random_state(seed, nx=14, ny=11)
            lhs = h1_seminorm(f)
            rhs = -cell_inner(f, apply_dirichlet_laplacian(f))
            assert abs(lhs - rhs) <= 1e-11 * (1 + abs(lhs)), (
                f"seed {seed}: {lhs} vs {rhs}"
            )

    def test_grad_norm_sq_scaling(self):
        g, _, u = random_state(21)
        one = grad_norm_sq(u)
        two = grad_norm_sq(MacVectorField(g, 2 * u.ux, 2 * u.uy))
        assert two == pytest.approx(4 * one, rel=1e-13)

    def test_kinetic_energy_value(self):
        g, _, u = random_state(9)
        expect = 0.5 * g.vol * ((u.ux ** 2).sum() + (u.uy ** 2).sum())
        assert kinetic_energy(u) == pytest.approx(expect, rel=1e-14)


class TestMatrixIO:
    def test_save_load_roundtrip_exact(self, tmp_path):
        """%.17g output reproduces doubles bit-for-bit on reload."""
        g, f, _ = random_state(30)
        path = tmp_path / "field.txt"
        save_matrix(path, f.data)
        back = load_matrix(path)
        assert back.shape == f.data.shape
        assert np.array_equal(back, f.data), "roundtrip is not byte-faithful"
