"""Scharfetter-Gummel charge transport.

The two load-bearing properties are flux exactness on discrete Boltzmann
profiles (which freezes the equilibrium exactly) and the sign structure of
the implicit generator (zero column sums give exact mass conservation,
nonnegative off-diagonals give unconditional positivity). The step solves
one tridiagonal sweep per direction; the sweeps are checked against the
generator they split and against a sparse LU of their own matrices. One
coupled sim.step is checked on the same rough data.
"""

from unittest import mock

import numpy as np
import pytest

import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.sparse.linalg import splu

from ehd2d import (
    Grid2D,
    MacVectorField,
    ScalarField,
    bernoulli,
    div_from_faces,
    integrate,
    laplacian_matrix,
    solve_dirichlet,
    step_charges,
    total_energy,
    transport_generator,
)
from ehd2d import sim, transport
from ehd2d.transport import ANION_SIGN, CATION_SIGN


class TestBernoulli:
    def test_reference_value(self):
        """B(1) = 1/(e-1), frozen independently."""
        assert bernoulli(1.0) == pytest.approx(0.5819767068693265, abs=1e-15)

    def test_value_at_zero(self):
        assert bernoulli(0.0) == 1.0

    def test_shift_identity(self):
        """B(x) - B(-x) = -x, the identity behind flux antisymmetry."""
        for x in (0.5, 2.0, 10.0, 30.0):
            got = bernoulli(x) - bernoulli(-x)
            assert got == pytest.approx(-x, rel=1e-13), f"x={x}: {got}"

    def test_tiny_argument_series(self):
        x = 1e-12
        assert bernoulli(x) == pytest.approx(1.0 - x / 2, abs=1e-15)

    def test_no_overflow_at_large_arguments(self):
        big = bernoulli(-750.0)
        small = bernoulli(750.0)
        assert np.isfinite(big) and big == pytest.approx(750.0, rel=1e-12)
        assert np.isfinite(small) and 0.0 <= small < 1e-300

    def test_vectorized(self):
        x = np.array([-2.0, 0.0, 2.0])
        out = bernoulli(x)
        assert out.shape == (3,)
        assert out[1] == 1.0


def face_fluxes(c, phi, sign, h):
    """Fluxes across the interior x faces of a 3x3 grid of spacing h with
    u = 0, from the sweep bands: face (j, i) carries
    h (lower[j, i] c[j, i] - upper[j, i+1] c[j, i+1])."""
    g = Grid2D(3, 3, 3 * h, 3 * h)
    upper, lower = transport._sweep_bands(
        ScalarField(g, phi), MacVectorField.zeros(g), "x")[sign]
    return h * (lower[:, :-1] * c[:, :-1] - upper[:, 1:] * c[:, 1:])


def assert_zero_flux_on_maxwellian(sign, rng):
    """The species' Boltzmann profile c = e^{-sign phi} across jumps dpsi
    in [-50, 50]."""
    for _ in range(200):
        phi_l = rng.uniform(-3, 3)
        dpsi = rng.uniform(-50, 50)
        phi = np.tile(phi_l + dpsi * np.arange(3.0), (3, 1))
        c = np.exp(-sign * phi)
        f = face_fluxes(c, phi, sign, 0.05)
        scale = (np.abs(c[:, :-1]) + np.abs(c[:, 1:])) / 0.05
        assert np.all(np.abs(f) <= 1e-12 * scale), f"dpsi={dpsi}: flux {f}"


class TestFaceFlux:
    def test_pure_diffusion(self):
        """No field: the flux is the plain two-point difference,
        (2 - 1)/0.1 = 10."""
        c = np.tile([2.0, 1.0, 0.0], (3, 1))
        for sign in (CATION_SIGN, ANION_SIGN):
            f = face_fluxes(c, np.zeros((3, 3)), sign, 0.1)[:, 0]
            assert f == pytest.approx(np.full(3, 10.0))

    def test_exact_on_cation_maxwellian(self):
        """Cells sampling c = e^{+phi} carry zero cation flux for any jump."""
        assert_zero_flux_on_maxwellian(CATION_SIGN, np.random.default_rng(1))

    def test_exact_on_anion_maxwellian(self):
        """Cells sampling c = e^{-phi} carry zero anion flux."""
        assert_zero_flux_on_maxwellian(ANION_SIGN, np.random.default_rng(2))

    def test_reduces_to_upwind_for_strong_fields(self):
        """For a huge potential drop the flux is the drift of the upstream
        cell only."""
        phi = np.tile([0.0, -40.0, -80.0], (3, 1))
        c = np.tile([3.0, 5.0, 0.0], (3, 1))
        f = face_fluxes(c, phi, ANION_SIGN, 0.1)[:, 0]
        # anion drift runs down its own potential: B(-40)*3 - B(40)*5 over h
        assert f == pytest.approx(np.full(3, 40.0 * 3.0 / 0.1), rel=1e-10)


def random_setup(seed, nx=20, ny=15):
    g = Grid2D(nx, ny)
    rng = np.random.default_rng(seed)
    phi = ScalarField(g, rng.uniform(-1.5, 1.5, (ny, nx)))
    u = MacVectorField.zeros(g)
    u.ux[:, 1:-1] = rng.uniform(-2, 2, (ny, nx - 1))
    u.uy[1:-1, :] = rng.uniform(-2, 2, (ny - 1, nx))
    v = ScalarField(g, rng.uniform(0.0, 2.0, (ny, nx)))
    w = ScalarField(g, rng.uniform(0.0, 2.0, (ny, nx)))
    return g, phi, u, v, w


class TestGeneratorStructure:
    def test_column_sums_vanish(self):
        """1^T L = 0 exactly: the implicit step conserves each species'
        mass to roundoff no matter the field or velocity."""
        for seed in range(5):
            g, phi, u, _, _ = random_setup(seed)
            for sign in (CATION_SIGN, ANION_SIGN):
                L = transport_generator(phi, u, sign)
                s = np.asarray(L.T @ np.ones(g.nx * g.ny)).ravel()
                assert np.abs(s).max() <= 1e-12 * (1 / g.hx ** 2), (
                    f"seed {seed} sign {sign}: max column sum {np.abs(s).max()}"
                )

    def test_offdiagonals_nonnegative(self):
        g, phi, u, _, _ = random_setup(9)
        L = transport_generator(phi, u, CATION_SIGN).tocoo()
        off = L.data[L.row != L.col]
        assert off.min() >= 0.0, f"negative off-diagonal {off.min()}"

    def test_zero_field_zero_velocity_is_neumann_laplacian(self):
        from ehd2d import laplacian_matrix
        g = Grid2D(11, 8)
        phi = ScalarField.zeros(g)
        u = MacVectorField.zeros(g)
        L = transport_generator(phi, u, CATION_SIGN)
        A = laplacian_matrix(g, "neumann")
        d = abs(L - A)
        assert d.max() <= 1e-12 / g.hx ** 2


class TestStepCharges:
    def test_mass_conserved_through_churn(self):
        """200 implicit steps under fresh random fields every step: machine
        conservation, no accumulation."""
        g, phi, u, v, w = random_setup(33)
        rng = np.random.default_rng(34)
        m_v, m_w = integrate(v), integrate(w)
        for _ in range(200):
            phi = ScalarField(g, rng.uniform(-1, 1, (g.ny, g.nx)))
            v, w = step_charges(v, w, phi, u, 1e-2)
        assert abs(integrate(v) - m_v) <= 1e-13 * m_v
        assert abs(integrate(w) - m_w) <= 1e-13 * m_w

    @pytest.mark.parametrize("dt", [1e-4, 1e-2, 1.0])
    def test_positivity_any_dt(self, dt):
        """The M-matrix structure gives positivity without a dt restriction;
        exercised with exact zeros in the initial data."""
        g, phi, u, v, w = random_setup(55)
        v.data[::3, ::4] = 0.0
        w.data[1::5, ::3] = 0.0
        out_v, out_w = step_charges(v, w, phi, u, dt)
        assert out_v.data.min() >= 0.0, f"dt={dt}: min v {out_v.data.min()}"
        assert out_w.data.min() >= 0.0, f"dt={dt}: min w {out_w.data.min()}"

    @pytest.mark.parametrize("dt", [1e4, 1e6])
    def test_rough_data_huge_dt(self, dt):
        """With phi = 0 and u = 0 no CFL cap applies. The sweeps' residual
        check scales with ||I - dt L||, so even these steps pass, with the
        masses held to rounding and no negative density."""
        g = Grid2D(128, 128)
        rng = np.random.default_rng(91)
        c = rng.uniform(0.0, 1.0, (g.ny, g.nx))
        c[c < 0.3] = 0.0
        v, w = ScalarField(g, c), ScalarField(g, c[::-1, ::-1])
        out = step_charges(v, w, ScalarField.zeros(g), MacVectorField.zeros(g), dt)
        for before, after in zip((v, w), out):
            m = integrate(before)
            assert abs(integrate(after) - m) <= 1e-12 * m
            assert after.data.min() >= 0.0

    def test_maxwellian_is_invariant(self):
        """With u=0 the discrete Boltzmann profiles are exact steady states
        of the implicit step (flux exactness transferred to the matrix)."""
        g = Grid2D(18, 18)
        rng = np.random.default_rng(77)
        phi = ScalarField(g, rng.uniform(-0.8, 0.8, (18, 18)))
        u = MacVectorField.zeros(g)
        v = ScalarField(g, np.exp(phi.data))
        w = ScalarField(g, np.exp(-phi.data))
        out_v, out_w = step_charges(v, w, phi, u, 0.5)
        dv = np.abs(out_v.data - v.data).max()
        dw = np.abs(out_w.data - w.data).max()
        assert dv <= 1e-11, f"cation Maxwellian moved by {dv:.3e}"
        assert dw <= 1e-11, f"anion Maxwellian moved by {dw:.3e}"

    def test_relaxes_to_maxwellian(self):
        """Fixed potential, u=0: the implicit chain converges to the
        mass-normalized Boltzmann profile."""
        g = Grid2D(16, 12)
        rng = np.random.default_rng(41)
        phi = ScalarField(g, 0.7 * np.sin(2 * np.pi * g.cell_centers()[0]))
        u = MacVectorField.zeros(g)
        v0 = ScalarField(g, rng.uniform(0.2, 1.8, (12, 16)))
        v, w = v0, v0.copy()
        mass = integrate(v0)
        for _ in range(4):
            v, w = step_charges(v, w, phi, u, 1e4)
        target_v = np.exp(phi.data)
        target_v *= mass / (g.vol * target_v.sum())
        target_w = np.exp(-phi.data)
        target_w *= mass / (g.vol * target_w.sum())
        assert np.abs(v.data - target_v).max() <= 1e-8
        assert np.abs(w.data - target_w).max() <= 1e-8

    def test_entropy_nonincreasing(self):
        """Relative entropy against the fixed-potential Maxwellian is a
        Lyapunov function of the pure transport step."""
        from ehd2d.diagnostics import psi
        g = Grid2D(20, 20)
        rng = np.random.default_rng(90)
        phi = ScalarField(g, 0.5 * np.cos(np.pi * g.cell_centers()[1]))
        u = MacVectorField.zeros(g)
        v = ScalarField(g, rng.uniform(0.05, 2.0, (20, 20)))
        w = ScalarField(g, rng.uniform(0.05, 2.0, (20, 20)))
        mass = integrate(v)
        ref = np.exp(phi.data)
        ref *= mass / (g.vol * ref.sum())
        prev = g.vol * psi(v.data, ref).sum()
        for k in range(30):
            v, w = step_charges(v, w, phi, u, 5e-3)
            h = g.vol * psi(v.data, ref).sum()
            assert h <= prev + 1e-13 * (1 + abs(prev)), (
                f"entropy rose at step {k}: {prev} -> {h}"
            )
            prev = h

    def test_dt_must_be_positive(self):
        g, phi, u, v, w = random_setup(3)
        with pytest.raises(ValueError):
            step_charges(v, w, phi, u, 0.0)


def line_matrix(upper, lower):
    """Tridiagonal generator of one sweep on its line layout (lines flattened)."""
    return sp.diags(
        [upper.ravel()[1:], -(upper + lower).ravel(), lower.ravel()[:-1]], [1, 0, -1]
    ).tocsr()


def natural_order(T, lines):
    """Move a line-layout matrix to the grid's cell order; lines[k, i] is the
    cell index of point i of line k."""
    T = T.tocoo()
    perm = lines.ravel()
    n = perm.size
    return sp.csr_matrix((T.data, (perm[T.row], perm[T.col])), shape=(n, n))


SWEEP_GRIDS = [(7, 5, 1.3, 0.7), (3, 11, 0.4, 2.5), (12, 9, 2.0, 1.1)]


def sweep_setups():
    for k, (nx, ny, lx, ly) in enumerate(SWEEP_GRIDS):
        g = Grid2D(nx, ny, lx, ly)
        rng = np.random.default_rng(100 + k)
        phi = ScalarField(g, rng.uniform(-4.0, 4.0, (ny, nx)))
        u = MacVectorField.zeros(g)
        u.ux[:, 1:-1] = rng.uniform(-5, 5, (ny, nx - 1))
        u.uy[1:-1, :] = rng.uniform(-5, 5, (ny - 1, nx))
        idx = np.arange(nx * ny).reshape(ny, nx)
        for sign in (CATION_SIGN, ANION_SIGN):
            yield g, phi, u, sign, {"x": idx, "y": idx.T}


def face_by_face_generator(phi, u, sign):
    """Dense L with (L c) = -div F, assembled one interior face at a time from

        F = (1/h) [B(s dpsi) cL - B(-s dpsi) cR] + max(u, 0) cL - max(-u, 0) cR,

    dpsi = phi_R - phi_L, the flux from the left (lower) cell to the right
    (upper) one; each face drains F/h from its left cell into its right."""
    g = phi.grid
    ph = phi.data
    faces = [(j * g.nx + i, j * g.nx + i + 1, ph[j, i + 1] - ph[j, i], u.ux[j, i + 1], g.hx)
             for j in range(g.ny) for i in range(g.nx - 1)]
    faces += [(j * g.nx + i, (j + 1) * g.nx + i, ph[j + 1, i] - ph[j, i], u.uy[j + 1, i], g.hy)
              for j in range(g.ny - 1) for i in range(g.nx)]
    L = np.zeros((g.nx * g.ny, g.nx * g.ny))
    for left, right, dpsi, uf, h in faces:
        weights = ((left, bernoulli(sign * dpsi) / h + max(uf, 0.0)),
                   (right, -bernoulli(-sign * dpsi) / h - max(-uf, 0.0)))
        for cell, weight in weights:
            L[left, cell] -= weight / h
            L[right, cell] += weight / h
    return L


class TestSweeps:
    def test_sweeps_sum_to_generator(self):
        """L_x + L_y, and transport_generator, equal the generator assembled
        face by face from the flux formula. The off-diagonals are the same
        floating-point products; a diagonal sums up to four face terms in
        another order, so entries agree to 1e-14 of the largest."""
        for g, phi, u, sign, lines in sweep_setups():
            ref = face_by_face_generator(phi, u, sign)
            parts = [
                natural_order(line_matrix(*transport._sweep_bands(phi, u, d)[sign]), lines[d])
                for d in ("x", "y")
            ]
            tol = 1e-14 * np.abs(ref).max()
            for got in (parts[0] + parts[1], transport_generator(phi, u, sign)):
                err = np.abs(got.toarray() - ref).max()
                assert err <= tol, f"grid {g.nx}x{g.ny} sign {sign}: {err:.3e} > {tol:.3e}"

    def test_sweep_generators_conservative_with_nonnegative_couplings(self):
        for g, phi, u, sign, lines in sweep_setups():
            for d in ("x", "y"):
                upper, lower = transport._sweep_bands(phi, u, d)[sign]
                T = line_matrix(upper, lower)
                colsum = np.asarray(T.sum(axis=0)).ravel()
                scale = np.abs(T).max()
                assert np.abs(colsum).max() <= 1e-14 * scale, (
                    f"{d} sweep: column sum {np.abs(colsum).max():.3e}")
                off = T - sp.diags(T.diagonal())
                assert off.min() >= 0.0, f"{d} sweep: negative coupling {off.min()}"
                # line ends carry no coupling to the next line
                assert np.all(upper[:, 0] == 0.0) and np.all(lower[:, -1] == 0.0)

    @pytest.mark.parametrize("dt", [1e-4, 1e-2, 1.0, 1e2, 1e4])
    def test_sweep_matches_reference_lu(self, dt):
        """The banded solve agrees with a sparse LU of M = I - dt L on the
        same lines, for both directions and across eight decades of dt.

        M^{-1} is nonnegative with unit column sums, so ||M^{-1}||_1 = 1 and
        cond_1(M) = ||M||_1. Two backward-stable solvers may differ by about
        eps * cond_1(M); the bound is 1e-12 until that exceeds it (here from
        dt = 1e2 on, up to 4e-9 at dt = 1e4)."""
        rng = np.random.default_rng(int(np.log10(dt)) + 10)
        for g, phi, u, sign, _ in sweep_setups():
            for d in ("x", "y"):
                upper, lower = transport._sweep_bands(phi, u, d)[sign]
                c = rng.uniform(0.0, 3.0, upper.shape)
                got = transport._sweep(c, upper, lower, dt)
                M = (sp.identity(c.size) - dt * line_matrix(upper, lower)).tocsc()
                ref = splu(M).solve(c.ravel()).reshape(c.shape)
                err = np.abs(got - ref).max() / np.abs(ref).max()
                tol = max(1e-12, np.finfo(float).eps * abs(M).sum(axis=0).max())
                assert err <= tol, f"{d} sweep, dt={dt}: relative error {err:.3e} > {tol:.1e}"


def stream_velocity(g, xi_interior):
    """Divergence-free face velocity from corner-node stream-function values;
    the wall nodes are zero, so the boundary faces are exactly no-flow."""
    xi = np.zeros((g.ny + 1, g.nx + 1))
    xi[1:-1, 1:-1] = xi_interior
    return MacVectorField(g, np.diff(xi, axis=0) / g.hy, -np.diff(xi, axis=1) / g.hx)


@st.composite
def transport_cases(draw):
    nx, ny = draw(st.integers(3, 10)), draw(st.integers(3, 10))
    lx, ly = draw(st.floats(0.3, 3.0)), draw(st.floats(0.3, 3.0))
    g = Grid2D(nx, ny, lx, ly)
    # exact zeros next to values five decades apart: jumps in the data
    density = st.one_of(st.just(0.0), st.floats(1e-3, 1.0), st.floats(10.0, 100.0))
    v = draw(hnp.arrays(float, (ny, nx), elements=density))
    w = draw(hnp.arrays(float, (ny, nx), elements=density))
    phi = draw(hnp.arrays(float, (ny, nx), elements=st.floats(-3.0, 3.0)))
    xi = draw(hnp.arrays(float, (ny - 1, nx - 1), elements=st.floats(-2.0, 2.0)))
    dt = 10.0 ** draw(st.integers(-5, 4)) * draw(st.floats(1.0, 9.0))
    return (g, ScalarField(g, v), ScalarField(g, w), ScalarField(g, phi),
            stream_velocity(g, xi), dt)


# derandomize fixes the seed, but not the draws: hypothesis (as of 6.155) also
# draws literal constants it collects from every loaded local module, so an
# edit to an unrelated module or test file changes the examples a property
# sees. The hard inputs found so far are pinned below with @example, so every
# run tries them whatever the random part draws.
PROPERTY_SETTINGS = settings(derandomize=True, max_examples=80, deadline=None,
                             database=None)


def pinned_case(nx, ny, lx, ly, v, w, dt, phi=0.0):
    """A transport_cases draw given by hand, at rest; fields broadcast."""
    g = Grid2D(nx, ny, lx, ly)
    v, w, phi = (ScalarField(g, np.broadcast_to(f, (ny, nx))) for f in (v, w, phi))
    return g, v, w, phi, MacVectorField.zeros(g), dt


# An unsolved line misses its mass by eps * dt * ||L||: without the rescale
# in transport._sweep, mass 1.0 ended at 0.99999999999542 here, and the
# Maxwellian moved by 4.1e-12.
MASS_AT_LARGE_DT = pinned_case(3, 7, 1.0, 1.0, v=0.0, w=1.0, dt=2e3)
MAXWELLIAN_AT_LARGE_DT = pinned_case(3, 3, 1.0, 1.0, v=1.0, w=1.0, dt=1e4)
# One step leaves densities below eps/2 in the far cells, where psi once
# returned NaN, so the total energy was NaN.
DENSITY_FAR_BELOW_ONE = pinned_case(3, 5, 3.0, 3.0, v=77.0,
                                    w=np.pad([[1.0]], ((0, 4), (0, 2))), dt=1.0)


class TestStepProperties:
    """One step on rough data: nonnegative densities with exact zeros and
    jumps, random divergence-free velocities, dt over ten decades (up to
    9e4).

    A direct solve of I - dt L rounds at about eps * dt * ||L||, which on
    these grids passes 1e-12 of the mass from dt ~ 1e2 on; the sweep
    rescales each line to its input's mass, so the 1e-12 bounds hold at
    every drawn dt."""

    @PROPERTY_SETTINGS
    @given(transport_cases())
    @example(MASS_AT_LARGE_DT)
    def test_mass_exact_and_densities_nonnegative(self, case):
        g, v, w, phi, u, dt = case
        assert np.abs(div_from_faces(u).data).max() <= 1e-12 * (1.0 + u.max_speed() / min(g.hx, g.hy))
        out_v, out_w = step_charges(v, w, phi, u, dt)
        for before, after in ((v, out_v), (w, out_w)):
            m0, m1 = integrate(before), integrate(after)
            assert abs(m1 - m0) <= 1e-12 * m0, f"mass {m0!r} -> {m1!r}"
            assert after.data.min() >= 0.0

    @PROPERTY_SETTINGS
    @given(transport_cases())
    @example(MAXWELLIAN_AT_LARGE_DT)
    def test_maxwellian_fixed(self, case):
        g, _, _, phi, _, dt = case
        u = MacVectorField.zeros(g)
        v = ScalarField(g, np.exp(phi.data))
        w = ScalarField(g, np.exp(-phi.data))
        out_v, out_w = step_charges(v, w, phi, u, dt)
        for before, after in ((v, out_v), (w, out_w)):
            err = np.abs(after.data - before.data).max() / before.data.max()
            assert err <= 1e-12, f"dt={dt}: Maxwellian moved by {err:.3e}"

    @PROPERTY_SETTINGS
    @given(transport_cases())
    @example(DENSITY_FAR_BELOW_ONE)
    def test_full_step_keeps_invariants(self, case):
        """One coupled sim.step from a state whose potential solves Poisson
        for the drawn charges, at the drawn dt capped by the CFL limit."""
        g, v, w, _, u, dt = case
        phi = solve_dirichlet(ScalarField(g, v.data - w.data))
        state = sim.SystemState(u, ScalarField.zeros(g), v, w, phi)
        out = sim.step(state, min(dt, sim.cfl_limit(state)))
        for before, after in ((v, out.v), (w, out.w)):
            m0, m1 = integrate(before), integrate(after)
            assert abs(m1 - m0) <= 1e-12 * m0, f"mass {m0!r} -> {m1!r}"
            assert after.data.min() >= 0.0
        assert np.abs(div_from_faces(out.u).data).max() <= 1e-8
        rhs = (out.v.data - out.w.data).ravel()
        r = laplacian_matrix(g, "dirichlet") @ out.phi.data.ravel() - rhs
        assert np.sqrt(g.vol * (r @ r)) <= 1e-10 * (1.0 + np.sqrt(g.vol * (rhs @ rhs)))
        W0 = total_energy(state).W
        assert total_energy(out).W <= W0 + 1e-12 * (1 + abs(W0))


def reference_bands(phi, u, sign, direction):
    """One species' sweep bands by the sign-threaded formula, two Bernoulli
    evaluations per species and direction."""
    g = phi.grid
    if direction == "x":
        ph, uf, h = phi.data, u.ux[:, 1:-1], g.hx
    else:
        ph, uf, h = phi.data.T, u.uy[1:-1, :].T, g.hy
    dpsi = np.diff(ph, axis=1)
    a = bernoulli(sign * dpsi) / h + np.maximum(uf, 0.0)
    b = bernoulli(-sign * dpsi) / h + np.maximum(-uf, 0.0)
    upper = np.zeros(ph.shape)
    lower = np.zeros(ph.shape)
    upper[:, 1:] = b / h
    lower[:, :-1] = a / h
    return upper, lower


class TestSharedBands:
    @PROPERTY_SETTINGS
    @given(transport_cases())
    def test_step_matches_per_species_bands_with_four_bernoulli_calls(self, case):
        """Both species read their bands from one B(dpsi), B(-dpsi) pair per
        face: the step is bit for bit the per-species formula, and makes one
        pair of Bernoulli evaluations per direction."""
        g, v, w, phi, u, dt = case
        with mock.patch.object(transport, "bernoulli", wraps=transport.bernoulli) as spy:
            got = step_charges(v, w, phi, u, dt)
        assert spy.call_count == 4
        for c, sign, out in ((v, CATION_SIGN, got[0]), (w, ANION_SIGN, got[1])):
            cx = transport._sweep(c.data, *reference_bands(phi, u, sign, "x"), dt)
            ref = transport._sweep(cx.T, *reference_bands(phi, u, sign, "y"), dt).T
            assert np.array_equal(out.data, ref), f"sign {sign}, dt={dt}"
