"""Stationary Poisson-Boltzmann solver and its consistency checks.

The solver minimizes a strictly convex functional, so beyond the residual
contract we can test global properties: the solution is the unique
minimizer from any start, symmetric masses pin the potential at zero, and
the potential amplitude vanishes with the total mass. solve_pb solves its
Newton directions on a quarter of the grid; full_grid_solve below is the
Newton on every cell that it replaced, kept here as the reference.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st
from scipy.sparse.linalg import splu

from ehd2d import (
    Grid2D,
    ScalarField,
    apply_dirichlet_laplacian,
    functional_J,
    h1_seminorm,
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
from ehd2d.poisson import _lap1d
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


def full_grid_direction(A, v, w, R, M, N, vol):
    """Exact Newton direction on every cell: (B - U U^T) delta = R by
    Woodbury, with B = diag(v + w) - A, A the Dirichlet Lap_h and
    U = [sqrt(vol/M) v, sqrt(vol/N) w]."""
    U = np.column_stack((np.sqrt(vol / M) * v, np.sqrt(vol / N) * w))
    B = (sp.diags(v + w) - A).tocsc()
    Z = splu(B, permc_spec="MMD_AT_PLUS_A", **stationary.NEWTON_LU).solve(
        np.column_stack((R, U)))
    Z_R, Z_U = Z[:, 0], Z[:, 1:]
    C = np.eye(2) - U.T @ Z_U
    return Z_R + Z_U @ np.linalg.solve(C, U.T @ Z_R)


def log_int_exp(z, vol):
    """log of int e^{z} dx by midpoint quadrature, shifted against overflow."""
    m = float(z.max())
    return m + np.log(vol * float(np.exp(z - m).sum()))


def full_grid_solve(M, N, grid, phi):
    """solve_pb's damped Newton from the cell array phi, with every
    direction solved on the full grid by laplacian_matrix: the same
    residual, rounding stop and line search. Returns phi, v, w as cell
    arrays and the iteration count."""
    A = laplacian_matrix(grid, "dirichlet")
    vol = grid.vol
    phi = phi.ravel()

    def maxwellian(z, mass):
        e = np.exp(z - z.max())
        return mass * e / (vol * e.sum())

    def norm(vec):
        return float(np.sqrt(vol * (vec @ vec)))

    def J_of(vec):
        return functional_J(ScalarField(grid, vec.reshape(grid.ny, grid.nx)), M, N)

    for k in range(51):
        v, w = maxwellian(phi, M), maxwellian(-phi, N)
        R = A @ phi - v + w
        norm_b = grid.lap_norm + float((v + w).max())
        if norm(R) <= ROUNDING * (norm_b * norm(phi) + norm(v) + norm(w)):
            return (*(a.reshape(grid.ny, grid.nx) for a in (phi, v, w)), k)
        delta = full_grid_direction(A, v, w, R, M, N, vol)
        slope = -vol * float(R @ delta)
        J0 = J_of(phi)
        logs = M * abs(log_int_exp(phi, vol)) + N * abs(log_int_exp(-phi, vol))
        fuzz = ROUNDING * (1.0 + abs(J0) + logs)
        alpha = 1.0
        while J_of(phi + alpha * delta) > J0 + 1e-4 * alpha * slope + fuzz:
            alpha *= 0.5
            assert alpha >= 1e-12, "reference line search stalled"
        phi = phi + alpha * delta
    raise AssertionError("reference Newton did not converge in 50 iterations")


# (M, N) of TestExactNewton on 32^2, 64^2 and 128^2 over 4x4
NEWTON_MASSES = [(0.05, 0.1), (30, 40), (50, 60), (100, 150), (1000, 1500)]
# (nx, ny, M, N) over 4x4 whose residual floor lay above a fixed 1e-10 stop
ROUNDING_FLOORS = [(8192, 3, 5.0, 10.0), (16, 16, 1e6, 2e6)]
# grid and masses at which J's rounding once stalled the line search
LINE_SEARCH_CASE = (7, 10, 0.3470495617567223, 3.167806813296821,
                    5851.277307903307, 5085.696403023489)
LINE_SEARCH_DRAW = dict(zip(("shape", "log_lx", "log_ly", "log_m", "log_n"),
                            (LINE_SEARCH_CASE[:2], *np.log10(LINE_SEARCH_CASE[2:]))))
# a solve whose third step takes one halving
HALVING_CASE = (16, 16, 4.0, 4.0, 1e4, 1e6)
# (nx, ny, lx, ly, M, N) of every solve above but HALVING_CASE
NEWTON_CASES = ([(n, n, 4.0, 4.0, M, N) for n in (32, 64, 128) for M, N in NEWTON_MASSES]
                + [(nx, ny, 4.0, 4.0, M, N) for nx, ny, M, N in ROUNDING_FLOORS]
                + [LINE_SEARCH_CASE])


def folded_laplacian(grid):
    """Dirichlet Lap_h on fields even about both mid-lines, acting on the
    lower-left quarter of cells (C order, j major), by scipy: per axis the
    1-D operator times the mirror extension P (cell i of the full axis takes
    quarter cell min(i, n - 1 - i)), restricted to the quarter's rows, and
    the Kronecker sum of the two, as in poisson.laplacian_matrix."""
    def folded(n, h):
        m = stationary._mirror(n)
        P = sp.csr_matrix((np.ones(n), (np.arange(n), m)))
        return (_lap1d(n, h, "dirichlet") @ P)[: P.shape[1]]

    return sp.kronsum(folded(grid.nx, grid.hx), folded(grid.ny, grid.hy), format="csr")


def newton_matrix(grid, d):
    """B_q = diag(d) - A_q as scipy forms it, the reference for
    stationary._newton_matrix."""
    return (sp.diags(d) - folded_laplacian(grid)).tocsc()


def reference_solve(M, N, grid):
    """solve_pb's Newton loop as it was before each iterate was evaluated
    once: the Maxwellians from their own exponentials, J_of(phi) every
    iteration, logs from two more log-integrals, J with its own
    exponentials for every line-search trial, and the quarter directions
    of _newton_direction with B_q formed by scipy (newton_matrix). Returns
    phi, v, w, the residual and the history."""
    shape = (grid.ny, grid.nx)
    mult = stationary._multiplicity(shape)
    vol = grid.vol
    phi = np.zeros(shape)

    def maxwellian(z, mass):
        e = np.exp(z - float(z.max()))
        return mass * e / (vol * float(e.sum()))

    def J_of(arr):
        z = arr.ravel()
        return (0.5 * h1_seminorm(ScalarField(grid, arr)) + M * log_int_exp(z, vol)
                + N * log_int_exp(-z, vol))

    def norm(arr):
        return float(np.sqrt(vol * np.vdot(arr, arr)))

    history = []
    for _ in range(51):
        v, w = maxwellian(phi, M), maxwellian(-phi, N)
        R = stationary._stencil(phi, grid, "dirichlet") - v + w
        res = norm(R)
        norm_b = grid.lap_norm + float((v + w).max())
        if res <= ROUNDING * (norm_b * norm(phi) + norm(v) + norm(w)):
            history.append((res, 0.0, 0))
            return phi, v, w, res, history
        v_q, w_q, R_q = (stationary._fold(a).ravel() for a in (v, w, R))
        B = newton_matrix(grid, v_q + w_q)
        delta = stationary._unfold(
            stationary._newton_direction(B, mult, v_q, w_q, R_q, M, N, vol), shape)
        slope = -vol * float(np.vdot(R, delta))
        J0 = J_of(phi)
        logs = M * abs(log_int_exp(phi, vol)) + N * abs(log_int_exp(-phi, vol))
        fuzz = ROUNDING * (1.0 + abs(J0) + logs)
        alpha = 1.0
        halvings = 0
        while J_of(phi + alpha * delta) > J0 + 1e-4 * alpha * slope + fuzz:
            alpha *= 0.5
            halvings += 1
            assert alpha >= 1e-12, "reference line search stalled"
        history.append((res, alpha, halvings))
        phi = phi + alpha * delta
    raise AssertionError("reference Newton did not converge in 50 iterations")


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
        """At a random potential even about both mid-lines, the direction
        solved on the quarter and mirrored equals the dense solve with the
        Jacobian of R on the full grid, taken column by column by
        complex-step differentiation. The grids cover odd and even cell
        counts on each axis."""
        M, N = 2.0, 3.0
        rng = np.random.default_rng(3)
        for nx, ny in ((6, 5), (5, 6), (7, 7), (6, 6), (3, 4)):
            g = Grid2D(nx, ny, 1.3, 0.7)
            vol, shape = g.vol, (ny, nx)
            A = laplacian_matrix(g, "dirichlet")
            phi_q = rng.standard_normal(((ny + 1) // 2, (nx + 1) // 2))
            phi = stationary._unfold(phi_q, shape).ravel()

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
            v_q, w_q, R_q = (stationary._fold(a.reshape(shape)).ravel() for a in (v, w, R))
            delta_q = stationary._newton_direction(
                newton_matrix(g, v_q + w_q), stationary._multiplicity(shape),
                v_q, w_q, R_q, M, N, vol)
            delta = stationary._unfold(delta_q, shape).ravel()
            rel = np.linalg.norm(delta - ref) / np.linalg.norm(ref)
            assert rel <= 1e-10, f"relative gap {rel:.3e} on {nx}x{ny}"
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
        # every direction is mirrored from the quarter, so phi is exactly even
        assert np.array_equal(s.phi.data, s.phi.data[::-1])
        assert np.array_equal(s.phi.data, s.phi.data[:, ::-1])

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

    @pytest.mark.parametrize("nx, ny, lx, ly, M, N", NEWTON_CASES)
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


class TestOneEvaluationPerIterate:
    """solve_pb evaluates the exponentials of each iterate and of each
    line-search trial once; the accepted trial's give the next Maxwellians,
    J0 and log-integrals. That reorders no arithmetic, so every solve
    equals reference_solve's bit for bit."""

    @pytest.mark.parametrize("nx, ny, lx, ly, M, N", NEWTON_CASES + [HALVING_CASE])
    def test_same_bits_as_the_reference_loop(self, nx, ny, lx, ly, M, N):
        g = Grid2D(nx, ny, lx, ly)
        s = solve_pb(M, N, g)
        phi, v, w, res, history = reference_solve(M, N, g)
        for got, want in ((s.phi.data, phi), (s.v.data, v), (s.w.data, w)):
            assert got.tobytes() == want.tobytes()
        assert s.residual == res
        assert s.history == history

    @pytest.mark.parametrize("nx, ny, lx, ly, M, N", [NEWTON_CASES[4], HALVING_CASE])
    def test_one_exponential_pair_per_trial(self, monkeypatch, nx, ny, lx, ly, M, N):
        """1 evaluation at phi = 0, then 1 + halvings per Newton step: 6 in
        5 steps without a halving, and 9 in 7 steps, one of them halved."""
        calls = []
        inner = stationary._maxwellians

        def recorded(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(stationary, "_maxwellians", recorded)
        s = solve_pb(M, N, Grid2D(nx, ny, lx, ly))
        assert len(calls) == 1 + sum(1 + h for _, _, h in s.history[:-1])
        assert len(calls) == {NEWTON_CASES[4]: 6, HALVING_CASE: 9}[(nx, ny, lx, ly, M, N)]


class TestNewtonMatrix:
    """solve_pb assembles B_q once per solve, straight into CSC arrays, and
    each iteration writes only its diagonal. The arrays equal those scipy
    forms from the folded operator bit for bit, so the LU, phi and every
    output do too."""

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(shape=st.one_of(st.tuples(st.integers(3, 40), st.integers(3, 40)),
                           st.sampled_from([(8192, 3), (3, 8192), (255, 256)])),
           log_lx=st.floats(-3.0, 3.0), log_ly=st.floats(-3.0, 3.0),
           seed=st.integers(0, 2 ** 32 - 1))
    # hx = 4/33: the wall diagonal -3 (1/h^2) is one ulp from -3/h^2 here
    @example(shape=(33, 31), log_lx=np.log10(4.0), log_ly=np.log10(4.0), seed=0)
    # hx^2 overflows, so 1/hx^2 = 0 and scipy keeps no x entries
    @example(shape=(5, 4), log_lx=200.0, log_ly=0.0, seed=1)
    def test_same_arrays_as_scipy(self, shape, log_lx, log_ly, seed):
        g = Grid2D(*shape, 10.0 ** log_lx, 10.0 ** log_ly)
        B, slots, diag = stationary._newton_matrix(g)
        rng = np.random.default_rng(seed)
        d = 10.0 ** rng.uniform(-8.0, 8.0, B.shape[0])  # v + w on the quarter
        d[rng.random(d.size) < 0.1] = 0.0
        B.data[slots] = d - diag
        ref = newton_matrix(g, d)
        assert B.shape == ref.shape
        for got, want in ((B.indptr, ref.indptr), (B.indices, ref.indices),
                          (B.data, ref.data)):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()


class TestQuarterGrid:
    """J is strictly convex and unchanged by both mirrors, so its minimizer
    is even about both mid-lines, and solve_pb factors each Newton matrix
    on the lower-left quarter only. No test sees time or memory; the size
    test is what keeps the factorization at a quarter."""

    @pytest.mark.parametrize("nx, ny", [(6, 5), (7, 7), (8192, 3)])
    def test_factors_a_quarter_size_matrix(self, monkeypatch, nx, ny):
        shapes = []

        def recording(B, *args, **kwargs):
            shapes.append(B.shape)
            return splu(B, *args, **kwargs)

        monkeypatch.setattr(stationary, "splu", recording)
        s = solve_pb(5.0, 10.0, Grid2D(nx, ny, 4.0, 4.0))
        assert s.iterations >= 1
        q = ((nx + 1) // 2) * ((ny + 1) // 2)
        assert shapes == [(q, q)] * s.iterations

    @pytest.mark.parametrize("nx, ny, lx, ly, M, N", NEWTON_CASES)
    def test_same_solve_as_full_grid(self, nx, ny, lx, ly, M, N):
        """Same iteration count; phi within 1e-13 relative, v and w within
        1e-12. On 8192x3 the condition number of B is about 1.4e7 and the
        quarter's LU rounds differently, so phi moves by 8.6e-12 relative
        and v and w, whose relative change is phi's absolute one, by
        1.7e-12; all three are held to 1e-11 there. (One more Newton step
        moves phi there by 9.5e-9, well inside the rounding stop.)"""
        g = Grid2D(nx, ny, lx, ly)
        s = solve_pb(M, N, g)
        phi, v, w, iterations = full_grid_solve(M, N, g, np.zeros((ny, nx)))
        assert s.iterations == iterations
        thin = (nx, ny) == (8192, 3)
        phi_rtol, vw_rtol = (1e-11, 1e-11) if thin else (1e-13, 1e-12)
        for got, want, rtol in ((s.phi, phi, phi_rtol), (s.v, v, vw_rtol), (s.w, w, vw_rtol)):
            gap = np.abs(got.data - want).max() / np.abs(want).max()
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
        start = 0.5 * rng.standard_normal((32, 32))
        other = full_grid_solve(0.05, 0.1, g, start)[0]
        gap = np.abs(base.phi.data - other).max()
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
