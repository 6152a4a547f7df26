"""Stationary Poisson-Boltzmann solver and its consistency checks.

The solver minimizes a strictly convex functional, so beyond the residual
contract we can test global properties: the solution is the unique
minimizer from any start, symmetric masses pin the potential at zero, and
the potential amplitude vanishes with the total mass. solve_pb solves its
Newton directions on a quarter of the grid, or an eighth of a square one;
full_grid_solve below is the Newton on every cell that it replaced, kept
here as the reference.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, example, given, settings, strategies as st
from scipy.sparse.linalg import splu

from ehd2d import (
    Grid2D,
    ScalarField,
    apply_dirichlet_laplacian,
    body_force,
    grad_to_faces,
    h1_seminorm,
    integrate,
    laplacian_matrix,
    lp_norm,
    sinh_form_check,
    solve_pb,
)
from ehd2d import load_config, stationary
from ehd2d.errors import ConfigError, NonConvergence
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


def functional_J(phi, M, N):
    """J at the ScalarField phi, evaluated as solve_pb evaluates its iterates."""
    _, _, log_v, log_w = stationary._maxwellians(phi.data, M, N, phi.grid.vol)
    return stationary._functional(phi, M, N, log_v, log_w)


def stationary_pressure_check(s):
    """Interior-face grid-L2 norm of (v - w) grad phi - grad (v + w): the
    fluid's body force less the pressure gradient of p = v + w, which
    vanishes at the stationary state up to O(h^2)."""
    f = body_force(s.v, s.w, s.phi)
    p = grad_to_faces(ScalarField(s.grid, s.v.data + s.w.data))
    rx = f.ux[:, 1:-1] - p.ux[:, 1:-1]
    ry = f.uy[1:-1, :] - p.uy[1:-1, :]
    return float(np.sqrt(s.grid.vol * (float((rx * rx).sum()) + float((ry * ry).sum()))))


def config_takes(M, N, n, box=4.0):
    """Whether a config takes the masses M and N on the n^2 grid over box x box."""
    try:
        load_config(preset="relax-small-mass", overrides=[
            f"grid.nx={n}", f"grid.ny={n}", f"grid.lx={box!r}", f"grid.ly={box!r}",
            f"initial.M={M!r}", f"initial.N={N!r}"])
    except ConfigError:
        return False
    return True


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


def is_square(grid):
    """Whether the diagonal reflection x <-> y maps the grid to itself."""
    return grid.nx == grid.ny and grid.hx == grid.hy


def eighth(grid):
    """(S, P) on a square grid: P extends an array on the eighth of cells
    (j <= i of the lower-left quarter, C order, as np.triu_indices lists
    them) to the quarter, quarter cell (j, i) taking eighth cell
    (min(j, i), max(j, i)), and S restricts a quarter array to the eighth."""
    q = (grid.nx + 1) // 2
    j, i = np.triu_indices(q)
    fundamental = np.zeros((q, q), int)
    fundamental[j, i] = fundamental[i, j] = np.arange(j.size)
    P = sp.csr_matrix((np.ones(q * q), (np.arange(q * q), fundamental.ravel())))
    S = sp.csr_matrix((np.ones(j.size), (np.arange(j.size), j * q + i)), shape=(j.size, q * q))
    return S, P


def newton_matrix(grid, d):
    """B = diag(d) - A on the fundamental cells as scipy forms it, the
    reference for stationary._newton_matrix: on the quarter,
    (diag(d) - A_q).tocsc(); on a square grid, S (diag(P d) - A_q) P on the
    eighth."""
    if not is_square(grid):
        return (sp.diags(d) - folded_laplacian(grid)).tocsc()
    S, P = eighth(grid)
    return (S @ (sp.diags(P @ d) - folded_laplacian(grid)) @ P).tocsc()


def reference_solve(M, N, grid):
    """solve_pb's Newton loop as it was before each iterate was evaluated
    once: the Maxwellians from their own exponentials, J_of(phi) every
    iteration, logs from two more log-integrals, J with its own
    exponentials for every line-search trial, and the directions of
    _newton_direction on the fundamental cells with B formed by scipy
    (newton_matrix). Returns phi, v, w, the residual and the history."""
    orbits = stationary._Orbits(grid)
    g = stationary._newton_matrix(grid, orbits)[3]
    vol = grid.vol
    phi = np.zeros((grid.ny, grid.nx))

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
        v_f, w_f, R_f = (orbits.fold(a) for a in (v, w, R))
        B = newton_matrix(grid, v_f + w_f)
        delta = orbits.unfold(
            stationary._newton_direction(B, g, orbits.mult, v_f, w_f, R_f, M, N, vol))
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
        """At a random potential constant on the orbits of the grid's
        symmetries, the direction solved on the fundamental cells and
        unfolded equals the dense solve with the Jacobian of R on the full
        grid, taken column by column by complex-step differentiation. The
        grids cover odd and even cell counts on each axis, and square grids,
        folded onto an eighth, beside rectangular ones."""
        M, N = 2.0, 3.0
        rng = np.random.default_rng(3)
        for nx, ny, lx, ly in ((6, 5, 1.3, 0.7), (5, 6, 1.3, 0.7), (7, 7, 1.3, 0.7),
                               (6, 6, 1.3, 0.7), (3, 4, 1.3, 0.7), (7, 7, 1.3, 1.3),
                               (6, 6, 0.7, 0.7), (3, 3, 1.0, 1.0)):
            g = Grid2D(nx, ny, lx, ly)
            vol, shape = g.vol, (ny, nx)
            orbits = stationary._Orbits(g)
            assert orbits.square == (nx == ny and lx == ly)
            A = laplacian_matrix(g, "dirichlet")
            phi = orbits.unfold(rng.standard_normal(orbits.mult.size)).ravel()

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
            v_f, w_f, R_f = (orbits.fold(a.reshape(shape)) for a in (v, w, R))
            g_f = stationary._newton_matrix(g, orbits)[3]
            delta_f = stationary._newton_direction(
                newton_matrix(g, v_f + w_f), g_f, orbits.mult, v_f, w_f, R_f, M, N, vol)
            delta = orbits.unfold(delta_f).ravel()
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

    def test_converges_at_huge_mass_ratios(self):
        """M = 10^0, 10^4, ..., 10^296 with N = 0.1 on 8^2. The diagonal of
        the Woodbury capacitance, 1 - (vol/M) (mult v)^T B^-1 v, once lost
        every digit as v took over B's diagonal, and 21 of these 75 solves,
        from M = 1e20 to 1e152, found no descent direction. Every mass a
        config takes converges. Past that bound the grid-L2 norms of the stop
        overflow, and the solve, which once stopped at iteration 0 with
        residual inf and phi = 0, raises."""
        g = Grid2D(8, 8, 4.0, 4.0)
        taken = 0
        for k in range(75):
            M = 10.0 ** (4 * k)
            if not config_takes(M, 0.1, 8):
                with pytest.raises(NonConvergence, match="residual or bound overflows"):
                    solve_pb(M, 0.1, g)
                continue
            taken += 1
            s = solve_pb(M, 0.1, g)
            assert np.isfinite(s.residual) and s.residual <= newton_bound(s), f"M = {M:g}"
            assert integrate(s.v) == pytest.approx(M, rel=1e-13)
            assert integrate(s.w) == pytest.approx(0.1, rel=1e-13)
        assert taken == 39  # up to M = 1e152

    def test_converges_when_both_masses_are_huge(self):
        """M = 10^0, 10^4, ... with N = 2M on 8^2, up to the masses a config
        takes. 7 of these 39 solves, (1e88, 2e88) among them, found no
        descent direction: with both masses huge, det C = C_00 C_11 -
        C_01 C_10 was a difference of two products that cancelled. It is now
        a sum of nonnegative terms."""
        g = Grid2D(8, 8, 4.0, 4.0)
        masses = [(10.0 ** (4 * k), 2.0 * 10.0 ** (4 * k)) for k in range(75)]
        masses = [(M, N) for M, N in masses if config_takes(M, N, 8)]
        assert len(masses) == 39 and (1e88, 2e88) in masses  # up to M = 1e152
        for M, N in masses:
            s = solve_pb(M, N, g)
            assert np.isfinite(s.residual) and s.residual <= newton_bound(s), f"M = {M:g}"
            assert integrate(s.v) == pytest.approx(M, rel=1e-13)
            assert integrate(s.w) == pytest.approx(N, rel=1e-13)

    def test_non_finite_direction_raises(self, monkeypatch):
        class NanLU:
            def solve(self, b):
                return np.full_like(b, np.nan)

        monkeypatch.setattr(stationary, "splu", lambda *args, **kwargs: NanLU())
        with pytest.raises(NonConvergence, match="no descent direction at iteration 1"):
            solve_pb(0.05, 0.1, Grid2D(16, 16))


class TestMassBounds:
    """The masses SimConfig takes are those the Newton solve can carry: the
    potential bound it checks holds, and at either end of the range it takes
    the solve converges."""

    @pytest.mark.parametrize("nx, ny, lx, ly", [
        (3, 3, 1.0, 1.0), (8, 5, 3.0, 1.0), (9, 9, 1000.0, 1000.0), (16, 7, 1.0, 4.0)])
    def test_green_function_entries(self, nx, ny, lx, ly):
        """(-Lap_h)^-1 is nonnegative (the discrete maximum principle) and
        its entries are at most min(hx lx, hy ly)/4, the 1-D Green's function
        h x (l - x)/l at mid-span, which odd axes attain."""
        g = Grid2D(nx, ny, lx, ly)
        G = np.linalg.inv(-laplacian_matrix(g).toarray())
        cap = min(g.hx * g.lx, g.hy * g.ly) / 4.0
        assert G.min() >= 0.0
        assert G.max() <= cap * (1.0 + 1e-12), (G.max(), cap)

    @settings(derandomize=True, max_examples=40, deadline=None, database=None)
    @given(shape=st.tuples(st.integers(3, 24), st.integers(3, 24)),
           box=st.tuples(st.floats(0.1, 100.0), st.floats(0.1, 100.0)),
           masses=st.tuples(st.floats(-3.0, 4.0), st.floats(-3.0, 4.0)))
    def test_potential_within_the_maximum_principle_bound(self, shape, box, masses):
        """|phi| <= max(M, N) min(lx/hy, ly/hx)/4 at the solution, the bound
        SimConfig._validate takes: phi = (-Lap_h)^-1 (w - v) with v, w >= 0
        carrying M and N."""
        g = Grid2D(*shape, *box)
        M, N = (10.0 ** e for e in masses)
        s = solve_pb(M, N, g)
        assert np.abs(s.phi.data).max() <= max(M, N) * min(g.lx / g.hy, g.ly / g.hx) / 4.0

    @pytest.mark.parametrize("n", [3, 8])
    def test_every_large_mass_taken_on_large_cells_converges(self, n):
        """On n^2 cells over 1000 x 1000 the potential of masses near 1e153
        overflowed the Newton stop's norms ("residual or bound overflows"),
        though the density bound took them. Every mass 10^(k/4) with N = 2M
        that a config takes now converges, up to a bound of 8.9e150 on 3^2
        and 3.4e150 on 8^2."""
        g = Grid2D(n, n, 1000.0, 1000.0)
        taken = [10.0 ** (k / 4.0) for k in range(560, 640)
                 if config_takes(10.0 ** (k / 4.0), 2.0 * 10.0 ** (k / 4.0), n, 1000.0)]
        assert 20 < len(taken) < 80
        for M in taken:
            s = solve_pb(M, 2.0 * M, g)
            assert np.isfinite(s.residual) and s.residual <= newton_bound(s), f"M = {M:g}"

    @pytest.mark.parametrize("n", [3, 8, 64])
    def test_smallest_mass_taken_converges(self, n):
        """A config takes a mass m while vol/m is finite. Below that the
        Woodbury scale sqrt(vol/m) of the Newton direction overflowed, and
        the solve found no descent direction; just above it the solve
        converges with exact masses."""
        g = Grid2D(n, n, 4.0, 4.0)
        edge = g.vol / float(np.finfo(float).max)
        assert not config_takes(0.9999 * edge, 0.1, n)
        for M in (1.0001 * edge, 2.0 * edge):
            assert config_takes(M, 0.1, n)
            s = solve_pb(M, 0.1, g)
            assert np.isfinite(s.residual) and s.residual <= newton_bound(s)
            assert integrate(s.v) == pytest.approx(M, rel=1e-13)

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(shape=st.tuples(st.integers(3, 12), st.integers(3, 12)),
           box=st.tuples(st.floats(-150.0, 150.0), st.floats(-3.0, 3.0)).map(
               lambda t: (10.0 ** t[0], 10.0 ** (t[0] + t[1]))),
           densities=st.tuples(st.floats(-150.0, 150.0), st.floats(-150.0, 150.0)).map(
               lambda t: (10.0 ** t[0], 10.0 ** t[1])))
    @example(shape=(12, 11), box=(1.6866016677408867e-139, 2.688173269249764e-141),
             densities=(6.318072325896256e+102, 3.484293539287457e+104))
    @example(shape=(9, 4), box=(1.8516883930448976e-20, 4.0776011479080325e-23),
             densities=(1.9634261725693688e-141, 4.677284222136112e-146))
    def test_tiny_and_huge_boxes_converge(self, shape, box, densities):
        """Boxes from 1e-150 to 1e150 a side, at the mean densities a config
        takes. On tiny cells the slope -vol R^T delta underflowed to 0 (the
        first example), or R^T delta itself did (the second), so the solve
        found no descent direction and exited 2; its sign is now taken of R
        and delta scaled to a largest entry of 1."""
        lx, ly = box
        M, N = (rho * lx * ly for rho in densities)
        try:
            cfg = load_config(overrides=[f"grid.nx={shape[0]}", f"grid.ny={shape[1]}",
                                         f"grid.lx={lx!r}", f"grid.ly={ly!r}",
                                         f"initial.M={M!r}", f"initial.N={N!r}"])
        except ConfigError:
            assume(False)
        s = solve_pb(M, N, cfg.grid)
        assert np.isfinite(s.residual) and s.residual <= newton_bound(s)


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
        # every direction is unfolded from its orbits, so phi is exactly even
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
    most 6 (stationary.NEWTON_LU), which makes it faster; no test can see
    that time, so the first test pins the options.
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
    """solve_pb assembles B once per solve, straight into CSC arrays, and
    each iteration writes only its diagonal. The arrays equal those scipy
    forms from the folded operator bit for bit, so the LU, phi and every
    output do too: on the quarter, diag(d) - A_q; on a square grid, where
    the fold reaches the eighth, S (diag(P d) - A_q) P."""

    @settings(derandomize=True, max_examples=100, deadline=None, database=None)
    @given(shape=st.one_of(st.tuples(st.integers(3, 40), st.integers(3, 40)),
                           st.integers(3, 40).map(lambda n: (n, n)),
                           st.sampled_from([(8192, 3), (3, 8192), (255, 256), (256, 256)])),
           log_lx=st.floats(-3.0, 3.0), log_ly=st.one_of(st.none(), st.floats(-3.0, 3.0)),
           seed=st.integers(0, 2 ** 32 - 1))
    # hx = 4/33: the wall diagonal -3 (1/h^2) is one ulp from -3/h^2 here
    @example(shape=(33, 31), log_lx=np.log10(4.0), log_ly=np.log10(4.0), seed=0)
    @example(shape=(33, 33), log_lx=np.log10(4.0), log_ly=None, seed=0)
    # hx^2 overflows, so 1/hx^2 = 0 and scipy keeps no x entries
    @example(shape=(5, 4), log_lx=200.0, log_ly=0.0, seed=1)
    def test_same_arrays_as_scipy(self, shape, log_lx, log_ly, seed):
        """log_ly None draws a square domain, so a square shape gives a
        square grid."""
        lx = 10.0 ** log_lx
        g = Grid2D(*shape, lx, lx if log_ly is None else 10.0 ** log_ly)
        B, slots, diag, rowsum = stationary._newton_matrix(g, stationary._Orbits(g))
        rng = np.random.default_rng(seed)
        d = 10.0 ** rng.uniform(-8.0, 8.0, B.shape[0])  # v + w on the fundamental cells
        d[rng.random(d.size) < 0.1] = 0.0
        B.data[slots] = d - diag
        ref = newton_matrix(g, d)
        assert B.shape == ref.shape
        for got, want in ((B.indptr, ref.indptr), (B.indices, ref.indices),
                          (B.data, ref.data)):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        # the row sums -A 1, nonnegative and nonzero only at the walls
        A1 = newton_matrix(g, np.zeros(B.shape[0])) @ np.ones(B.shape[0])
        assert np.allclose(rowsum, A1, rtol=1e-14, atol=1e-14 * np.abs(A1).max())
        assert (rowsum >= 0.0).all()


class TestQuarterGrid:
    """J is strictly convex and unchanged by both mirrors, and on a square
    grid by the diagonal reflection too, so its minimizer is constant on
    the orbits of those symmetries, and solve_pb factors each Newton matrix
    on the lower-left quarter only, or on a square grid on the eighth of it
    with j <= i. No test sees time or memory; the size test is what keeps
    the factorization at a quarter or an eighth."""

    @pytest.mark.parametrize("nx, ny, ly", [(6, 5, 4.0), (7, 7, 4.0), (8192, 3, 4.0),
                                            (6, 6, 4.0), (7, 7, 3.0)])
    def test_factors_a_quarter_size_matrix(self, monkeypatch, nx, ny, ly):
        """A quarter of the cells, ceil(nx/2) ceil(ny/2), or on a square
        grid the eighth, q (q + 1) / 2 with q = ceil(n/2)."""
        shapes = []

        def recording(B, *args, **kwargs):
            shapes.append(B.shape)
            return splu(B, *args, **kwargs)

        monkeypatch.setattr(stationary, "splu", recording)
        g = Grid2D(nx, ny, 4.0, ly)
        s = solve_pb(5.0, 10.0, g)
        assert s.iterations >= 1
        qx, qy = (nx + 1) // 2, (ny + 1) // 2
        q = qx * (qx + 1) // 2 if is_square(g) else qx * qy
        assert shapes == [(q, q)] * s.iterations

    @settings(derandomize=True, max_examples=60, deadline=None, database=None)
    @given(shape=st.one_of(st.integers(3, 40).map(lambda n: (n, n)), GRID_SHAPES),
           log_lx=st.floats(-1.0, 1.0), log_ly=st.one_of(st.none(), st.floats(-1.0, 1.0)),
           log_m=st.floats(-3.0, 6.0), log_n=st.floats(-3.0, 6.0))
    @example(shape=(256, 256), log_lx=0.0, log_ly=None, log_m=np.log10(0.05),
             log_n=np.log10(0.1))
    @example(shape=(33, 31), log_lx=np.log10(4.0), log_ly=np.log10(4.0),
             log_m=np.log10(1000.0), log_n=np.log10(1500.0))
    def test_fields_keep_the_symmetries_bit_for_bit(self, shape, log_lx, log_ly, log_m, log_n):
        """phi, v and w are exactly even about both mid-lines, and on a
        square grid (log_ly None with a square shape) each equals its own
        transpose bit for bit."""
        lx = 10.0 ** log_lx
        g = Grid2D(*shape, lx, lx if log_ly is None else 10.0 ** log_ly)
        s = solve_pb(10.0 ** log_m, 10.0 ** log_n, g)
        for f in (s.phi.data, s.v.data, s.w.data):
            assert f.tobytes() == f[::-1].tobytes()
            assert f.tobytes() == f[:, ::-1].tobytes()
            if is_square(g):
                assert f.tobytes() == f.T.tobytes()

    @pytest.mark.parametrize("nx, ny, lx, ly", [(6, 5, 1.0, 1.0), (7, 7, 1.0, 1.0),
                                                (8, 8, 2.0, 2.0), (8, 8, 2.0, 1.0),
                                                (3, 3, 1.0, 1.0), (9, 4, 1.0, 1.0)])
    def test_fold_is_the_orbit_mean(self, nx, ny, lx, ly):
        """fold takes the mean of any cell array over each orbit, P^T x /
        mult, with P from the mirrors and, on a square grid, the diagonal
        reflection (eighth); unfold extends a fundamental array by those
        symmetries, and folding it back returns it bit for bit."""
        g = Grid2D(nx, ny, lx, ly)
        orbits = stationary._Orbits(g)
        rng = np.random.default_rng(nx * ny)
        x = rng.standard_normal((ny, nx))
        mirror = [sp.csr_matrix((np.ones(n), (np.arange(n), stationary._mirror(n))))
                  for n in (ny, nx)]
        P = sp.kron(mirror[0], mirror[1])  # the quarter extended to the grid
        if is_square(g):
            P = P @ eighth(g)[1]
        assert np.allclose(orbits.fold(x), (P.T @ x.ravel()) / orbits.mult, rtol=1e-14, atol=0)
        assert np.array_equal(orbits.mult, P.T @ np.ones(nx * ny))
        y = rng.standard_normal(orbits.mult.size)
        full = orbits.unfold(y)
        assert np.array_equal(full.ravel(), P @ y)
        assert orbits.fold(full).tobytes() == y.tobytes()

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
