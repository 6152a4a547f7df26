"""Grid, field containers, and the discrete calculus.

The whole energy bookkeeping downstream rests on two exact identities of
the staggered-grid operators checked here: summation-by-parts duality
between gradient and divergence, and the telescoping of divergence sums
(total outflux of an interior-supported face field is exactly zero).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

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


def savetxt_17g(path, data):
    """The reference format of save_matrix."""
    np.savetxt(path, np.atleast_2d(data), fmt="%.17g", delimiter=" ")


def _written(tmp_path, save, data):
    path = tmp_path / "matrix.txt"
    save(path, data)
    return path.read_bytes()


def _with_neighbours(values):
    """Each value with the doubles just below and just above it, as one row."""
    v = np.array(values)
    return np.concatenate([np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf)])


def _mirrored(top, nrow):
    """The nrow-row matrix whose row j and row nrow - 1 - j both equal top[j]."""
    return np.concatenate([top[:(nrow + 1) // 2], top[:nrow // 2][::-1]])


def _col_mirrored(left, ncol):
    """The ncol-column matrix (a row, for 1-D left) whose column i and column
    ncol - 1 - i both equal left[..., i]."""
    return np.ascontiguousarray(_mirrored(left.T, ncol).T)


def _bits(*values):
    """Doubles from their 64-bit patterns."""
    return np.array(values, dtype=np.uint64).view(np.float64)


QUIET_NAN, OTHER_NAN, NEGATIVE_NAN = 0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000
ONE, INF = 0x3FF0000000000000, 0x7FF0000000000000


@st.composite
def matrices(draw):
    """Arbitrary float64 bit patterns: a 1-D row, 1x1, 5x1, 4x2, 7x2, 2x33,
    3x17, 64x65 or 65x64. A draw may be made row-mirrored (row j and row
    nrow - 1 - j hold the same bits) by repeating its first ceil(nrow/2)
    rows, column-mirrored likewise, or both."""
    shape = draw(st.sampled_from([None, (1, 1), (5, 1), (4, 2), (7, 2), (2, 33), (3, 17),
                                  (64, 65), (65, 64)]))
    if shape is None:
        shape = (draw(st.integers(1, 50)),)
    data = draw(hnp.arrays(np.uint64, shape, elements=st.integers(0, 2 ** 64 - 1)))
    if len(shape) == 2 and draw(st.booleans()):
        data = _mirrored(data, shape[0])
    if draw(st.booleans()):
        data = _col_mirrored(data, shape[-1])
    return data.view(np.float64)


def _mirrored_but_one(nrow, ncol):
    """A row-mirrored matrix of random doubles whose last row is one ulp off
    its mirror, the first row."""
    rng = np.random.default_rng(nrow)
    data = _mirrored(rng.standard_normal(((nrow + 1) // 2, ncol)), nrow)
    data[-1, 0] = np.nextafter(data[-1, 0], np.inf)
    return data


def _col_mirrored_but_one(nrow, ncol, row):
    """A column-mirrored matrix of random doubles whose given row is one ulp
    off reading the same backwards."""
    rng = np.random.default_rng(ncol)
    data = _col_mirrored(rng.standard_normal((nrow, (ncol + 1) // 2)), ncol)
    data[row, -1] = np.nextafter(data[row, -1], np.inf)
    return data


# Each example rewrites the same file under tmp_path.
MATRIX_SETTINGS = settings(derandomize=True, max_examples=60, deadline=None, database=None,
                           suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestMatrixIO:
    def test_save_load_roundtrip_exact(self, tmp_path):
        """%.17g output reproduces doubles bit-for-bit on reload."""
        g, f, _ = random_state(30)
        path = tmp_path / "field.txt"
        save_matrix(path, f.data)
        back = load_matrix(path)
        assert back.shape == f.data.shape
        assert np.array_equal(back, f.data), "roundtrip is not byte-faithful"

    @MATRIX_SETTINGS
    @given(data=matrices())
    @example(data=np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                            1.7976931348623157e308, -1.7976931348623157e308,
                            np.inf, -np.inf, np.nan]))
    @example(data=_with_neighbours([1e-5, 1e-4, -1e-5, -1e-4, 1e16, 1e17, -1e16, -1e17]))
    @example(data=_with_neighbours([10.0 ** k for k in range(-300, 301)]))
    @example(data=np.array([2.0 ** k for k in range(-60, 61)]
                           + [float(2 ** k + 1) for k in range(54, 70)]))
    @example(data=np.array([round(v, d) for v in (2.0 / 3.0, -98765.4321987654321)
                            for d in range(1, 18)]))
    @example(data=np.array([131073 / 2.0 ** 18, 0.125, 2.5, 1.0 / 3.0, 9.9999999999999996e-281]))
    # equal values but not equal bits: the first and last rows print 0 and -0
    @example(data=np.array([[0.0, 1.5], [2.0, 3.0], [-0.0, 1.5]]))
    @example(data=_mirrored(np.array([[np.nan, np.inf, -np.inf, 5e-324, -5e-324, -0.0, 0.0],
                                      [1.0, -2.5, np.nan, 1e300, -1e-300, np.inf, 7.0]]), 3))
    @example(data=_mirrored(np.array([[np.nan, -np.inf, 5e-324], [-0.0, np.inf, -5e-324]]), 4))
    # 301 formatted rows span two blocks of _BLOCK // 64 = 256 rows
    @example(data=_mirrored(np.random.default_rng(601).standard_normal((301, 64)), 601))
    @example(data=_mirrored_but_one(7, 5))
    @example(data=_mirrored_but_one(8, 3))
    # mirrored columns with equal values but not equal bits: 0 against -0,
    # NaNs of other payloads or signs; then the same bits, inf among them
    @example(data=np.array([[0.0, 1.5, -0.0], [2.0, 3.0, 2.0]]))
    @example(data=np.array([[-0.0, 0.0], [1.0, 1.0]]))
    @example(data=_bits(QUIET_NAN, ONE, OTHER_NAN))
    @example(data=_bits([NEGATIVE_NAN, INF, QUIET_NAN], [ONE, ONE, ONE]))
    @example(data=_col_mirrored(_bits([OTHER_NAN, INF, 1 << 63, 1], [INF | 1 << 63, 0, ONE, 2]),
                                7))
    @example(data=_mirrored(_col_mirrored(_bits([NEGATIVE_NAN, INF], [1 << 63, ONE]), 4), 3))
    @example(data=_col_mirrored(_bits(INF, INF | 1 << 63), 3))
    # 1100 column-mirrored rows span three blocks of _BLOCK // 32 = 512 rows
    @example(data=_col_mirrored(np.random.default_rng(64).standard_normal((1100, 32)), 64))
    @example(data=_mirrored(_col_mirrored(np.random.default_rng(65).standard_normal((301, 33)),
                                          65), 601))
    @example(data=_col_mirrored_but_one(6, 7, 3))
    @example(data=_col_mirrored_but_one(5, 2, 4))
    def test_bytes_match_savetxt(self, tmp_path, data):
        """save_matrix writes exactly the bytes of np.savetxt with %.17g,
        whether or not the rows, the columns or both of the matrix mirror."""
        assert _written(tmp_path, save_matrix, data) == _written(tmp_path, savetxt_17g, data)

    def test_random_bit_patterns_match_savetxt(self, tmp_path):
        """A bulk check over every exponent: 2e5 random bit patterns, random
        doubles from 1e-30 to 1e30, and dyadic values, whose short decimal
        expansions include exact ties of the 17th digit. The 2-D shapes span
        several of save_matrix's row blocks."""
        rng = np.random.default_rng(20)
        bits = rng.integers(0, 2 ** 64, 200_000, dtype=np.uint64).view(np.float64)
        wide = rng.standard_normal(100_000) * 10.0 ** rng.integers(-30, 31, 100_000)
        dyadic = rng.integers(1, 2 ** 20, 100_000) / 2.0 ** rng.integers(0, 40, 100_000)
        for data in (bits.reshape(500, 400), wide, dyadic.reshape(1000, 100)):
            assert _written(tmp_path, save_matrix, data) == _written(tmp_path, savetxt_17g, data)
