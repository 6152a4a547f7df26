"""Stationary Poisson-Boltzmann solver and its consistency checks.

The solver minimizes a strictly convex functional, so beyond the residual
contract we can test global properties: the solution is the unique
minimizer from any start, symmetric masses pin the potential at zero, and
the potential amplitude vanishes with the total mass.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.sparse.linalg import splu

from ehd2d import (
    Grid2D,
    ScalarField,
    apply_dirichlet_laplacian,
    functional_J,
    integrate,
    laplacian_matrix,
    lp_norm,
    sinh_form_check,
    solve_pb,
    stationary_pressure_check,
)
from ehd2d import stationary
from ehd2d.errors import NonConvergence
from ehd2d.grid import ROUNDING
from ehd2d.stationary import export_stationary


def newton_bound(s):
    """The rounding stop of solve_pb at the returned iterate, worked out
    here from the grid: ROUNDING ((||Lap_h|| + max(v + w)) |phi| + |v| + |w|)
    with ||Lap_h|| = 4/hx^2 + 4/hy^2 and grid-L2 norms."""
    g = s.grid
    v, w, phi = s.v.data, s.w.data, s.phi.data

    def norm(f):
        return float(np.sqrt(g.vol * (f * f).sum()))

    norm_b = 4.0 / g.hx ** 2 + 4.0 / g.hy ** 2 + float((v + w).max())
    return ROUNDING * (norm_b * norm(phi) + norm(v) + norm(w))


# (M, N) of TestExactNewton on 32^2, 64^2 and 128^2 over 4x4
NEWTON_MASSES = [(0.05, 0.1), (30, 40), (50, 60), (100, 150), (1000, 1500)]
# (nx, ny, M, N) over 4x4 whose residual floor lay above a fixed 1e-10 stop
ROUNDING_FLOORS = [(8192, 3, 5.0, 10.0), (16, 16, 1e6, 2e6)]
# grid and masses at which J's rounding once stalled the line search
LINE_SEARCH_CASE = (7, 10, 0.3470495617567223, 3.167806813296821,
                    5851.277307903307, 5085.696403023489)
LINE_SEARCH_DRAW = dict(zip(("shape", "log_lx", "log_ly", "log_m", "log_n"),
                            (LINE_SEARCH_CASE[:2], *np.log10(LINE_SEARCH_CASE[2:]))))


class TestSymmetricMasses:
    def test_zero_potential_no_iterations(self):
        """M = N is an exact fixed point: the initial guess already meets
        the rounding stop."""
        for n in (16, 64, 96):
            s = solve_pb(0.1, 0.1, Grid2D(n, n))
            assert lp_norm(s.phi, np.inf) <= 1e-10, f"n={n}"
            assert s.iterations == 0

    def test_uniform_densities(self):
        g = Grid2D(32, 32, 2.0, 2.0)
        s = solve_pb(0.4, 0.4, g)
        assert np.allclose(s.v.data, 0.4 / g.area, atol=1e-12)
        assert np.allclose(s.w.data, 0.4 / g.area, atol=1e-12)


class TestAsymmetricMasses:
    def test_residual_and_iteration_contract(self):
        s = solve_pb(0.05, 0.1, Grid2D(64, 64))
        assert s.residual <= 1e-10
        assert s.iterations <= 50

    def test_newton_residual_is_field_equation(self):
        """The reported residual is the grid-L2 norm of
        Lap phi - v + w at the returned iterate."""
        g = Grid2D(48, 48)
        s = solve_pb(0.05, 0.1, g)
        r = apply_dirichlet_laplacian(s.phi).data - s.v.data + s.w.data
        res = float(np.sqrt(g.vol * (r * r).sum()))
        assert res == pytest.approx(s.residual, rel=1e-6)

    def test_densities_are_normalized_maxwellians(self):
        g = Grid2D(40, 40, 3.0, 3.0)
        s = solve_pb(0.07, 0.21, g)
        ev = np.exp(s.phi.data)
        ev *= 0.07 / (g.vol * ev.sum())
        ew = np.exp(-s.phi.data)
        ew *= 0.21 / (g.vol * ew.sum())
        assert np.abs(s.v.data - ev).max() <= 1e-13
        assert np.abs(s.w.data - ew).max() <= 1e-13

    def test_masses_exact(self):
        s = solve_pb(0.05, 0.1, Grid2D(32, 32, 4.0, 4.0))
        assert integrate(s.v) == pytest.approx(0.05, abs=1e-14)
        assert integrate(s.w) == pytest.approx(0.1, abs=1e-14)

    def test_sign_follows_majority_species(self):
        """With Lap phi = v - w and cations Boltzmann-distributed along
        +phi, an anion majority (M <= N) forces a nonnegative potential by
        the discrete maximum principle; the mirrored ordering flips it."""
        s = solve_pb(0.05, 0.1, Grid2D(64, 64))
        assert s.phi.data.min() >= -1e-10, (
            f"min phi {s.phi.data.min():.3e} under anion majority"
        )
        t = solve_pb(0.1, 0.05, Grid2D(64, 64))
        assert t.phi.data.max() <= 1e-10, (
            f"max phi {t.phi.data.max():.3e} under cation majority"
        )

    def test_mass_swap_mirrors_potential(self):
        a = solve_pb(0.05, 0.1, Grid2D(32, 32))
        b = solve_pb(0.1, 0.05, Grid2D(32, 32))
        assert np.abs(a.phi.data + b.phi.data).max() <= 1e-9

    def test_iteration_cap_raises(self):
        with pytest.raises(NonConvergence):
            solve_pb(0.05, 0.1, Grid2D(32, 32), max_iter=1)

    def test_invalid_masses_rejected(self):
        with pytest.raises(ValueError):
            solve_pb(0.0, 0.1, Grid2D(8, 8))
        with pytest.raises(ValueError):
            solve_pb(0.1, -0.5, Grid2D(8, 8))


class TestExactNewton:
    """The Newton direction solves with the exact Hessian of J, so the
    iteration converges quadratically and at any positive mass."""

    @pytest.mark.parametrize("n", [32, 64, 128])
    @pytest.mark.parametrize("M,N", NEWTON_MASSES)
    def test_converges_at_any_mass(self, n, M, N):
        s = solve_pb(M, N, Grid2D(n, n, 4.0, 4.0))
        assert s.residual <= 1e-10
        assert s.iterations <= 6, f"{s.iterations} iterations at M={M}, N={N}, {n}^2"

    def test_direction_matches_dense_exact_jacobian(self):
        """On a small anisotropic grid at a random potential, the Woodbury
        direction equals the dense solve with the Jacobian of R, taken
        column by column by complex-step differentiation."""
        g = Grid2D(6, 5, 1.3, 0.7)
        M, N, vol = 2.0, 3.0, g.vol
        A = laplacian_matrix(g, "dirichlet")
        phi = np.random.default_rng(3).standard_normal(g.nx * g.ny)

        def residual(z):
            ep, em = np.exp(z), np.exp(-z)
            return A @ z - M * ep / (vol * ep.sum()) + N * em / (vol * em.sum())

        R = residual(phi).real
        h = 1e-30
        jac = np.column_stack([residual(phi + 1j * h * e).imag / h
                               for e in np.eye(phi.size)])
        ref = np.linalg.solve(jac, -R)
        v = M * np.exp(phi) / (vol * np.exp(phi).sum())
        w = N * np.exp(-phi) / (vol * np.exp(-phi).sum())
        delta = stationary._newton_direction(A, v, w, R, M, N, vol)
        rel = np.linalg.norm(delta - ref) / np.linalg.norm(ref)
        assert rel <= 1e-10, f"relative gap {rel:.3e}"
        # the rank-two Hessian term is not negligible here
        quasi = np.linalg.solve(np.diag(v + w) - A.toarray(), R)
        assert np.linalg.norm(quasi - ref) >= 1e-3 * np.linalg.norm(ref)

    def test_history_ends_at_reported_residual(self):
        s = solve_pb(30, 40, Grid2D(32, 32, 4.0, 4.0))
        assert len(s.history) == s.iterations + 1
        assert s.history[-1][0] == s.residual
        assert s.history[-1][1:] == (0.0, 0)
        assert all(step > 0.0 for _, step, _ in s.history[:-1])

    def test_residual_falls_quadratically(self):
        """Over the last two steps each residual is at most the square of
        the one before, or under 1e-12, where rounding sets the floor."""
        s = solve_pb(30, 40, Grid2D(64, 64, 4.0, 4.0))
        res = [r for r, _, _ in s.history]
        assert len(res) >= 3
        for before, after in zip(res[-3:], res[-2:]):
            assert after <= max(before * before, 1e-12), f"residuals {res}"

    def test_non_finite_direction_raises(self, monkeypatch):
        class NanLU:
            def solve(self, b):
                return np.full_like(b, np.nan)

        monkeypatch.setattr(stationary, "splu", lambda *args, **kwargs: NanLU())
        with pytest.raises(NonConvergence, match="no descent direction at iteration 1"):
            solve_pb(0.05, 0.1, Grid2D(16, 16))


# square-ish grids from 3x3 to 32x32, and thin ones up to 1:64 either way
GRID_SHAPES = st.one_of(
    st.tuples(st.integers(3, 32), st.integers(3, 32)),
    st.tuples(st.integers(3, 8), st.integers(2, 64), st.booleans()).map(
        lambda t: (t[0] * t[1], t[0]) if t[2] else (t[0], t[0] * t[1])),
)


class TestRoundingStop:
    """solve_pb stops at the rounding that evaluating its residual leaves,
    which follows the grid and the masses. A fixed stop of 1e-10 sat below
    the residual floor of thin grids (3.8e-10 at 8192x3) and of large
    masses (1.8e-7 at M = 1e6), so those solves never stopped."""

    @pytest.mark.parametrize("nx, ny, M, N", ROUNDING_FLOORS)
    def test_thin_grid_and_huge_mass_converge(self, nx, ny, M, N):
        g = Grid2D(nx, ny, 4.0, 4.0)
        s = solve_pb(M, N, g)
        assert s.residual <= newton_bound(s)
        assert s.iterations <= 7
        assert integrate(s.v) == pytest.approx(M, rel=1e-13)
        assert integrate(s.w) == pytest.approx(N, rel=1e-13)
        with pytest.raises(NonConvergence):
            solve_pb(M, N, g, max_iter=s.iterations - 1)

    @pytest.mark.parametrize("n, M, N", [(32, 100, 150), (64, 0.05, 0.1), (128, 1000, 1500)])
    def test_one_step_short_fails_the_stop(self, n, M, N):
        """The stop is not loose: the iterate one Newton step before the
        returned one misses it, so a solve capped one step early raises.
        (At 32^2, M = 100 the returned iterate sits at 0.68 of the bound.)"""
        g = Grid2D(n, n, 4.0, 4.0)
        s = solve_pb(M, N, g)
        with pytest.raises(NonConvergence):
            solve_pb(M, N, g, max_iter=s.iterations - 1)

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(log_m=st.floats(-3.0, 6.0), log_n=st.floats(-3.0, 6.0), shape=GRID_SHAPES,
           log_lx=st.floats(-1.0, 1.0), log_ly=st.floats(-1.0, 1.0))
    @example(**LINE_SEARCH_DRAW)
    def test_converges_at_any_mass_on_any_grid(self, log_m, log_n, shape, log_lx, log_ly):
        """M and N log-uniform in [1e-3, 1e6], domain sides in [0.1, 10].

        The draws shift with unrelated edits (see test_transport's
        PROPERTY_SETTINGS), so the draw that found the line-search stall is
        pinned."""
        M, N = 10.0 ** log_m, 10.0 ** log_n
        s = solve_pb(M, N, Grid2D(*shape, 10.0 ** log_lx, 10.0 ** log_ly))
        assert s.residual <= newton_bound(s)
        assert integrate(s.v) == pytest.approx(M, rel=1e-13)
        assert integrate(s.w) == pytest.approx(N, rel=1e-13)

    def test_line_search_allows_rounding_of_large_terms(self):
        """With M and N large and close, J (here -152) is a small difference
        of log-integral terms near 2e4, whose rounding (3.6e-12 here) once
        failed the sufficient-decrease test at every step length, so the
        solve stalled at residual 1.1e-5 until it ran out of iterations."""
        nx, ny, lx, ly, M, N = LINE_SEARCH_CASE
        s = solve_pb(M, N, Grid2D(nx, ny, lx, ly))
        assert s.residual <= newton_bound(s)
        assert s.iterations <= 4


class TestNewtonLU:
    """The Newton LU takes SuperLU panels of 4 columns and supernodes of at
    most 6 (stationary.NEWTON_LU), which lowers the peak memory of the
    solve; no test can see that memory, so the first test pins the options.
    The ordering is unchanged and only the supernode partition differs from
    scipy's defaults, so every solve takes the same Newton steps and returns
    the same state to rounding."""

    def test_factorization_options(self, monkeypatch):
        calls = []

        def recording(*args, **kwargs):
            calls.append(kwargs)
            return splu(*args, **kwargs)

        monkeypatch.setattr(stationary, "splu", recording)
        s = solve_pb(0.05, 0.1, Grid2D(32, 32, 4.0, 4.0))
        assert s.iterations >= 1
        assert calls == [{"permc_spec": "MMD_AT_PLUS_A", "panel_size": 4,
                          "relax": 6}] * s.iterations

    @pytest.mark.parametrize(
        "nx, ny, lx, ly, M, N",
        [(n, n, 4.0, 4.0, M, N) for n in (32, 64, 128) for M, N in NEWTON_MASSES]
        + [(nx, ny, 4.0, 4.0, M, N) for nx, ny, M, N in ROUNDING_FLOORS]
        + [LINE_SEARCH_CASE])
    def test_same_solve_as_scipy_defaults(self, monkeypatch, nx, ny, lx, ly, M, N):
        """Same iteration count; phi within 1e-13 relative, v and w within
        1e-12. On 8192x3 the condition number of B is about 1.4e7, and any
        change of the LU's operation order moves phi there by 0.7e-12 to
        1.5e-12 (five panel/relax pairs, (8, 10) among them, each against
        scipy's defaults), so phi is held to 1e-11 on that grid."""
        g = Grid2D(nx, ny, lx, ly)
        s = solve_pb(M, N, g)
        monkeypatch.setattr(stationary, "splu", lambda B, permc_spec, **options:
                            splu(B, permc_spec=permc_spec))
        ref = solve_pb(M, N, g)
        assert s.iterations == ref.iterations
        phi_rtol = 1e-11 if (nx, ny) == (8192, 3) else 1e-13
        for got, want, rtol in ((s.phi, ref.phi, phi_rtol), (s.v, ref.v, 1e-12),
                                (s.w, ref.w, 1e-12)):
            gap = np.abs(got.data - want.data).max() / np.abs(want.data).max()
            assert gap <= rtol, f"relative gap {gap:.3e}"


class TestSmallMassLimit:
    def test_potential_amplitude_shrinks_with_mass(self):
        """Scaling (M, N) by 1, 1/10, 1/100 shrinks the potential
        amplitude monotonically, far more than fifty-fold overall."""
        g = Grid2D(48, 48)
        amps = []
        for scale in (1.0, 0.1, 0.01):
            s = solve_pb(0.05 * scale, 0.1 * scale, g)
            amps.append(lp_norm(s.phi, np.inf))
        assert amps[0] > amps[1] > amps[2], f"not monotone: {amps}"
        assert amps[2] <= amps[0] / 50.0, f"insufficient decay: {amps}"


class TestConvexFunctional:
    def test_value_at_zero(self):
        """J(0) = (M+N) log |Omega| exactly."""
        g = Grid2D(20, 20, 2.0, 2.0)
        J0 = functional_J(ScalarField.zeros(g), 0.3, 0.5)
        assert J0 == pytest.approx(0.8 * np.log(4.0), rel=1e-13)

    def test_solution_is_global_minimizer(self):
        """Random competitors never beat the Newton solution."""
        g = Grid2D(24, 24)
        s = solve_pb(0.05, 0.1, g)
        Jstar = functional_J(s.phi, 0.05, 0.1)
        rng = np.random.default_rng(14)
        for trial in range(40):
            amp = 10.0 ** rng.uniform(-4, 1)
            cand = ScalarField(g, s.phi.data + amp * rng.standard_normal((24, 24)))
            Jc = functional_J(cand, 0.05, 0.1)
            assert Jc >= Jstar - 1e-12 * (1 + abs(Jstar)), (
                f"trial {trial}: J {Jc} below minimum {Jstar}"
            )

    def test_minimum_below_zero_start_when_asymmetric(self):
        g = Grid2D(24, 24)
        s = solve_pb(0.05, 0.1, g)
        assert functional_J(s.phi, 0.05, 0.1) < functional_J(
            ScalarField.zeros(g), 0.05, 0.1)

    def test_unique_minimizer_from_random_start(self):
        g = Grid2D(32, 32)
        base = solve_pb(0.05, 0.1, g)
        rng = np.random.default_rng(8)
        start = ScalarField(g, 0.5 * rng.standard_normal((32, 32)))
        other = solve_pb(0.05, 0.1, g, phi0=start)
        gap = np.abs(base.phi.data - other.phi.data).max()
        assert gap <= 1e-9, f"two minimizers {gap:.3e} apart"


class TestConsistencyChecks:
    def test_sinh_residual_small_at_solution(self):
        s = solve_pb(0.05, 0.1, Grid2D(64, 64))
        assert sinh_form_check(s) <= 1e-9

    def test_sinh_residual_large_off_solution(self):
        g = Grid2D(32, 32)
        s = solve_pb(0.05, 0.1, g)
        fake = type(s)(
            ScalarField(g, s.phi.data + 0.01), s.v, s.w, s.M, s.N,
            s.residual, s.iterations)
        assert sinh_form_check(fake) > 1e-4

    def test_pressure_identity_second_order(self):
        """The stationary electric stress matches grad(v+w) at O(h^2):
        refining 32 -> 64 -> 128 shrinks the mismatch about fourfold."""
        errs = [stationary_pressure_check(solve_pb(1.5, 3.0, Grid2D(n, n)))
                for n in (32, 64, 128)]
        for a, b in zip(errs, errs[1:]):
            ratio = a / b
            assert 3.0 <= ratio <= 5.0, f"ratios off: {errs}"

    def test_export_roundtrip(self, tmp_path):
        from ehd2d import load_matrix
        s = solve_pb(0.05, 0.1, Grid2D(24, 24, 4.0, 4.0))
        paths = export_stationary(s, tmp_path)
        phi = load_matrix(paths["phi_inf"])
        assert np.array_equal(phi, s.phi.data)
        meta = (tmp_path / "metadata.txt").read_text()
        assert "iterations" in meta and "0.05" in meta
