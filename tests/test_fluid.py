"""Projection-method fluid step and the electric body force.

Verifies the three structural facts the coupled energy law needs: the
projection annihilates discrete-gradient forces exactly, the unforced step
strictly dissipates kinetic energy, and the post-step velocity is discretely
divergence-free with exact no-slip walls. The transform viscous solve
is checked against a sparse LU of the assembled operator.
"""

import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from ehd2d import (
    Grid2D,
    MacVectorField,
    ScalarField,
    body_force,
    div_from_faces,
    face_inner,
    fit_decay,
    grad_to_faces,
    kinetic_energy,
    ladyzhenskaya_ratio,
    load_config,
    step_velocity,
)
from ehd2d import fluid
from ehd2d.errors import NonConvergence, ZeroField
from ehd2d.poisson import _lap1d, _lap1d_eigenvalues, transform_solve
from ehd2d.sim import _stream_velocity, setup


def smooth_fields(n):
    g = Grid2D(n, n)
    X, Y = g.cell_centers()
    phi = ScalarField(g, np.sin(np.pi * X) * np.sin(np.pi * Y) * (1 + 0.5 * X))
    v = ScalarField(g, 1 + 0.5 * np.sin(2 * np.pi * X + 0.7) * np.cos(np.pi * Y + 0.3))
    w = ScalarField(g, 1 + 0.5 * np.cos(np.pi * X - 0.4) * np.sin(2 * np.pi * Y + 1.1))
    return g, phi, v, w


class TestBodyForce:
    def test_zero_for_neutral_charge(self):
        g, phi, v, _ = smooth_fields(16)
        f = body_force(v, v, phi)
        assert np.abs(f.ux).max() == 0.0 and np.abs(f.uy).max() == 0.0

    def test_zero_for_flat_potential(self):
        g, _, v, w = smooth_fields(16)
        f = body_force(v, w, ScalarField.full(g, 2.0))
        assert np.abs(f.ux).max() == 0.0 and np.abs(f.uy).max() == 0.0

    def test_boundary_faces_carry_no_force(self):
        g, phi, v, w = smooth_fields(24)
        f = body_force(v, w, phi)
        assert np.abs(f.ux[:, 0]).max() == 0.0
        assert np.abs(f.ux[:, -1]).max() == 0.0
        assert np.abs(f.uy[0, :]).max() == 0.0
        assert np.abs(f.uy[-1, :]).max() == 0.0

    def test_work_matches_trilinear_quadrature(self):
        """<f, u> agrees with the cell-centered quadrature of
        (u . grad phi)(v - w) to second order in h."""
        def both(n):
            g, phi, v, w = smooth_fields(n)
            u = _stream_velocity(g, 0.5)
            lhs = face_inner(body_force(v, w, phi), u)
            uxc = 0.5 * (u.ux[:, :-1] + u.ux[:, 1:])
            uyc = 0.5 * (u.uy[:-1, :] + u.uy[1:, :])
            gp = grad_to_faces(phi, dirichlet=True)
            gpx = 0.5 * (gp.ux[:, :-1] + gp.ux[:, 1:])
            gpy = 0.5 * (gp.uy[:-1, :] + gp.uy[1:, :])
            rhs = g.vol * float(
                ((uxc * gpx + uyc * gpy) * (v.data - w.data)).sum())
            return abs(lhs - rhs) / max(abs(lhs), abs(rhs))

        r32, r64 = both(32), both(64)
        assert r32 <= 3e-4, f"quadrature disagreement {r32:.2e} at 32^2"
        assert r64 <= r32 / 2.5, f"no h^2 improvement: {r32:.2e} -> {r64:.2e}"


class TestStepVelocity:
    def test_rest_stays_rest(self):
        g = Grid2D(16, 16)
        u, _ = step_velocity(MacVectorField.zeros(g), MacVectorField.zeros(g), 1e-2)
        assert np.abs(u.ux).max() == 0.0
        assert np.abs(u.uy).max() == 0.0

    def test_gradient_force_annihilated(self):
        """A force that is a discrete gradient must leave the velocity at
        rest up to rounding."""
        g = Grid2D(64, 64)
        X, Y = g.cell_centers()
        q = ScalarField(g, np.sin(np.pi * X) * np.sin(np.pi * Y) + 0.3 * X * Y)
        f = grad_to_faces(q)
        u, _ = step_velocity(MacVectorField.zeros(g), f, 1e-2)
        residual = max(np.abs(u.ux).max(), np.abs(u.uy).max())
        assert residual <= 1e-9, f"gradient force leaked {residual:.3e}"

    def test_kinetic_energy_strictly_decreases(self):
        g = Grid2D(48, 48)
        u = _stream_velocity(g, 0.5)
        zero = MacVectorField.zeros(g)
        prev = kinetic_energy(u)
        for k in range(10):
            u, _ = step_velocity(u, zero, 2e-3)
            ke = kinetic_energy(u)
            assert ke < prev, f"energy rose at step {k}: {prev} -> {ke}"
            prev = ke

    def test_post_step_divergence_free(self):
        g = Grid2D(40, 40)
        rng = np.random.default_rng(6)
        u = _stream_velocity(g, 0.3)
        f = MacVectorField.zeros(g)
        f.ux[:, 1:-1] = rng.standard_normal((40, 39))
        f.uy[1:-1, :] = rng.standard_normal((39, 40))
        u, _ = step_velocity(u, f, 1e-3)
        worst = np.abs(div_from_faces(u).data).max()
        assert worst <= 1e-8, f"residual divergence {worst:.3e}"
        u.assert_no_slip(0.0)

    def test_pressure_has_zero_mean(self):
        from ehd2d import integrate
        g = Grid2D(24, 24)
        rng = np.random.default_rng(13)
        f = MacVectorField.zeros(g)
        f.ux[:, 1:-1] = rng.standard_normal((24, 23))
        _, p = step_velocity(MacVectorField.zeros(g), f, 1e-2)
        assert abs(integrate(p)) <= 1e-12

    def test_unforced_decay_is_exponential(self):
        """Viscous relaxation of a smooth vortex: log kinetic energy is
        linear in time (r^2 at least 0.99) with a negative slope."""
        g = Grid2D(48, 48)
        u = _stream_velocity(g, 0.5)
        zero = MacVectorField.zeros(g)
        pts, t = [], 0.0
        for _ in range(60):
            u, _ = step_velocity(u, zero, 2e-3)
            t += 2e-3
            pts.append((t, kinetic_energy(u)))
        fit = fit_decay(pts)
        assert fit.lam > 0, f"fitted rate {fit.lam} not positive"
        assert fit.r_squared >= 0.99, f"r^2 {fit.r_squared}"

    def test_dt_validated(self):
        g = Grid2D(8, 8)
        with pytest.raises(ValueError):
            step_velocity(MacVectorField.zeros(g), MacVectorField.zeros(g), -1.0)


class TestProjectionBound:
    """step_velocity holds the projected divergence to fluid.projection_bound,
    the rounding the projection leaves, which grows with the velocity and
    the mesh. A fixed 1e-8 failed on a 64^2 vortex from amplitude 1e6 on
    (residual divergence 1.6e-7, and 2.0e-5 at 1e8)."""

    @pytest.mark.parametrize("amplitude", [1e6, 1e8])
    def test_large_velocity_projects_within_bound(self, amplitude):
        g = Grid2D(64, 64)
        u = _stream_velocity(g, amplitude)
        dt = 0.9 * g.hx / u.max_speed()
        u_new, q = step_velocity(u, MacVectorField.zeros(g), dt)
        worst = float(np.abs(div_from_faces(u_new).data).max())
        # measured at 0.005 of the bound at both amplitudes
        assert worst <= fluid.projection_bound(u_new, q)

    def test_perturbed_projection_raises(self, monkeypatch):
        """A projection potential off by a relative 1e-8 leaves a divergence
        far above the bound (about 1600 times it here), so the check still
        catches a wrong projection."""
        exact = fluid.solve_neumann

        def perturbed(rhs):
            return ScalarField(rhs.grid, (1.0 + 1e-8) * exact(rhs).data)

        monkeypatch.setattr(fluid, "solve_neumann", perturbed)
        g = Grid2D(64, 64)
        with pytest.raises(NonConvergence, match="residual divergence"):
            step_velocity(_stream_velocity(g, 20.0), MacVectorField.zeros(g), 1e-4)


def _viscous_reference(b, dt, hy, y_closure, hx, x_closure):
    """(I - dt Lap) x = b by sparse LU of the kron-assembled operator."""
    ny, nx = b.shape
    lap = sp.kron(_lap1d(ny, hy, y_closure), sp.identity(nx)) + sp.kron(
        sp.identity(ny), _lap1d(nx, hx, x_closure))
    lu = splu((sp.identity(ny * nx) - dt * lap).tocsc())
    return lu.solve(b.ravel()).reshape(b.shape)


def _viscous_solve(b, dt, hy, y_closure, hx, x_closure):
    """The viscous solve of step_velocity: (Lap - 1/dt) x = -b/dt."""
    return transform_solve(-b / dt, (y_closure, x_closure), (hy, hx), 1.0 / dt)


class TestViscousSolve:
    """The transform viscous solve against a sparse LU of the same
    operator, on grids with nx != ny and lx != ly."""

    @pytest.mark.parametrize("dt", [1e-4, 0.3])
    @pytest.mark.parametrize("nx, ny, lx, ly", [(7, 5, 1.3, 0.7), (3, 11, 1.0, 1.0)])
    def test_matches_sparse_lu(self, nx, ny, lx, ly, dt):
        g = Grid2D(nx, ny, lx, ly)
        rng = np.random.default_rng(nx * ny)
        components = {
            "ux": ((ny, nx - 1), (g.hy, "dirichlet", g.hx, "value")),
            "uy": ((ny - 1, nx), (g.hy, "value", g.hx, "dirichlet")),
        }
        for name, (shape, closures) in components.items():
            b = rng.standard_normal(shape)
            got = _viscous_solve(b, dt, *closures)
            ref = _viscous_reference(b, dt, *closures)
            err = np.linalg.norm(got - ref) / np.linalg.norm(ref)
            assert err <= 1e-12, f"{name}: relative error {err:.3e}"

    @pytest.mark.parametrize("boundary", ["value", "dirichlet", "neumann"])
    def test_eigenvalues_match_dense_spectrum(self, boundary):
        for n, h in [(3, 0.5), (8, 0.125), (11, 0.3)]:
            got = np.sort(_lap1d_eigenvalues(n, h, boundary))
            ref = np.linalg.eigvalsh(_lap1d(n, h, boundary).toarray())
            assert np.allclose(got, ref, rtol=1e-12, atol=1e-12 / (h * h))


class TestLadyzhenskayaRatio:
    def test_zero_field_rejected(self):
        g = Grid2D(12, 12)
        with pytest.raises(ZeroField):
            ladyzhenskaya_ratio(MacVectorField.zeros(g))

    def test_scaling_invariance(self):
        g = Grid2D(32, 32)
        u = _stream_velocity(g, 0.4)
        r1 = ladyzhenskaya_ratio(u)
        r2 = ladyzhenskaya_ratio(MacVectorField(g, 137.0 * u.ux, 137.0 * u.uy))
        assert r1 == pytest.approx(r2, rel=1e-12)

    def test_huge_amplitude_keeps_the_ratio(self):
        """|u|^4 overflows past |u| ~ 1e77; the ratio is then taken of u
        over its largest component, so the 8^2 vortex-charge state at
        amplitude 1e78 has the ratio of amplitude 1, and no warning."""
        ratios = []
        for amp in (1.0, 1e78):
            cfg = load_config(preset="vortex-charge", overrides=[
                "grid.nx=8", "grid.ny=8", f"initial.amplitude={amp}"])
            u = setup(cfg)[1].u
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                ratios.append(ladyzhenskaya_ratio(u))
        assert np.isfinite(ratios[1])
        assert ratios[1] == pytest.approx(ratios[0], rel=1e-12)

    def test_ratio_past_squares_overflow(self):
        """Past |u| ~ 1.3e154 the squares of u overflow too, and the ratio
        was nan with eleven warnings; it is now taken of u over its largest
        component, so amplitude 1e155 has the ratio of amplitude 1."""
        g = Grid2D(8, 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ratios = [ladyzhenskaya_ratio(_stream_velocity(g, amp)) for amp in (1.0, 1e155)]
        assert np.isfinite(ratios[1])
        assert ratios[1] == pytest.approx(ratios[0], rel=1e-12)

    def test_below_interpolation_bound(self):
        """The continuum inequality has constant 1; discrete fields at 64^2
        and finer must stay below 1.05."""
        for n in (64, 96):
            g = Grid2D(n, n)
            for amp in (0.1, 0.5, 2.0):
                r = ladyzhenskaya_ratio(_stream_velocity(g, amp))
                assert r <= 1.05, f"n={n} amp={amp}: ratio {r}"

    def test_random_noslip_fields_below_bound(self):
        rng = np.random.default_rng(99)
        g = Grid2D(64, 64)
        for trial in range(5):
            u = MacVectorField.zeros(g)
            u.ux[:, 1:-1] = rng.standard_normal((64, 63))
            u.uy[1:-1, :] = rng.standard_normal((63, 64))
            r = ladyzhenskaya_ratio(u)
            assert r <= 1.05, f"trial {trial}: ratio {r}"
