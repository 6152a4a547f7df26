"""Energy bookkeeping, decay fits, and the weighted Poincare constant.

The identities tested here are the numerical backbone of the package:
W splits exactly into its four parts, W_rel = W - W_inf to solver
tolerance, E_2 = 2L in the same quadrature, production vanishes exactly at
the discrete equilibrium, and Csiszar-Kullback bounds squared L1 distances
by 4 W_rel.
"""

from unittest import mock

import numpy as np
import pytest

from ehd2d import (
    Grid2D,
    MacVectorField,
    ScalarField,
    SystemState,
    apply_dirichlet_laplacian,
    embed_stationary,
    energy_report,
    entropy_production,
    fit_decay,
    grad_norm_sq,
    h1_seminorm,
    integrate,
    ladyzhenskaya_ratio,
    psi,
    solve_dirichlet,
    solve_pb,
    total_energy,
    weighted_poincare_estimate,
)
from ehd2d import diagnostics, fluid
from ehd2d.diagnostics import CSV_COLUMNS, _entropy_integral, csv_header, csv_row
from ehd2d.errors import EmptyWindow, NonpositiveValues
from ehd2d.sim import _stream_velocity


def random_system_state(seed, g, M=0.05, N=0.1, with_velocity=True):
    """Admissible random state: nonnegative charges with prescribed masses,
    consistent potential, no-slip velocity."""
    rng = np.random.default_rng(seed)
    v = rng.uniform(0.0, 2.0, (g.ny, g.nx))
    v *= M / (g.vol * v.sum())
    w = rng.uniform(0.0, 2.0, (g.ny, g.nx))
    w *= N / (g.vol * w.sum())
    u = MacVectorField.zeros(g)
    if with_velocity:
        u.ux[:, 1:-1] = 0.3 * rng.standard_normal((g.ny, g.nx - 1))
        u.uy[1:-1, :] = 0.3 * rng.standard_normal((g.ny - 1, g.nx))
    vf, wf = ScalarField(g, v), ScalarField(g, w)
    phi = solve_dirichlet(ScalarField(g, v - w))
    return SystemState(u, ScalarField.zeros(g), vf, wf, phi)


class TestPsi:
    def test_reference_value(self):
        """psi(1, 2) = 1 - log 2, frozen."""
        assert psi(1.0, 2.0) == pytest.approx(0.3068528194400547, abs=1e-15)

    def test_zero_at_reference(self):
        assert psi(1.7, 1.7) == 0.0

    def test_s_zero_limit(self):
        assert psi(0.0, 3.0) == 3.0

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        s = rng.uniform(0.0, 5.0, 1000)
        r = rng.uniform(1e-6, 5.0, 1000)
        assert psi(s, r).min() >= 0.0

    def test_accurate_near_reference(self):
        """The log1p form keeps relative accuracy for s close to r, where
        the naive s log(s/r) - s + r cancels catastrophically."""
        r = 1.0
        eps = 1e-8
        got = psi(r * (1 + eps), r)
        assert got == pytest.approx(0.5 * eps ** 2, rel=1e-6)

    def test_finite_far_below_reference(self):
        """Below about eps r / 2, 1 + d rounds to 0; psi must still be
        r - s + s log(s/r), not 0 * inf. A step from exact zeros leaves such
        densities, which once made W NaN."""
        s = np.array([1e-17, 1e-100, 5e-324, 0.0, 1e-300])
        r = np.array([1.0, 1.0, 2.0, 1.0, 1e5])
        got = psi(s, r)
        want = [1.0 - 1e-17 + 1e-17 * np.log(1e-17), 1.0, 2.0, 1.0, 1e5]
        assert np.all(np.isfinite(got))
        assert got == pytest.approx(want, rel=1e-15, abs=0.0)
        assert psi(1e-17, 1.0) == pytest.approx(want[0], rel=1e-15, abs=0.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(NonpositiveValues):
            psi(1.0, 0.0)
        with pytest.raises(NonpositiveValues):
            psi(-0.1, 1.0)


class TestEnergyDecomposition:
    def test_parts_sum_to_total(self):
        g = Grid2D(24, 24)
        st = random_system_state(5, g)
        parts = total_energy(st)
        recon = parts.entropy_v + parts.entropy_w + parts.electric + parts.kinetic
        assert parts.W == pytest.approx(recon, rel=1e-14)

    def test_electric_term_is_dirichlet_seminorm(self):
        g = Grid2D(20, 20)
        st = random_system_state(6, g)
        parts = total_energy(st)
        assert parts.electric == pytest.approx(
            0.5 * h1_seminorm(st.phi), rel=1e-14)

    def test_uniform_neutral_state_has_entropy_only(self):
        g = Grid2D(16, 16, 2.0, 2.0)
        one = ScalarField.full(g, 0.25)
        st = SystemState(MacVectorField.zeros(g), ScalarField.zeros(g),
                         one, one.copy(), ScalarField.zeros(g))
        parts = total_energy(st)
        assert parts.electric == 0.0 and parts.kinetic == 0.0
        expect = 2.0 * g.area * psi(0.25, 1.0)
        assert parts.W == pytest.approx(expect, rel=1e-13)


class TestEntropyProduction:
    def test_nonnegative_on_random_states(self):
        g = Grid2D(18, 18)
        for seed in range(6):
            st = random_system_state(seed, g)
            assert entropy_production(st) >= 0.0

    def test_zero_at_discrete_equilibrium(self):
        s = solve_pb(0.05, 0.1, Grid2D(32, 32, 4.0, 4.0))
        st = embed_stationary(s)
        assert entropy_production(st) == pytest.approx(0.0, abs=1e-18)

    def test_velocity_part_splits_off_at_equilibrium(self):
        """With charges at the Maxwellian the charge terms vanish exactly
        and production reduces to the velocity-gradient quadrature."""
        s = solve_pb(0.05, 0.1, Grid2D(32, 32))
        st = embed_stationary(s)
        st = SystemState(_stream_velocity(st.grid, 0.4), st.p, st.v, st.w,
                         st.phi, st.t)
        assert entropy_production(st) == pytest.approx(
            grad_norm_sq(st.u), rel=1e-12)

    def test_handles_exact_zeros(self):
        g = Grid2D(12, 12)
        st = random_system_state(9, g)
        st.v.data[3:5, 4:9] = 0.0
        p = entropy_production(st)
        assert np.isfinite(p) and p >= 0.0


class TestRelativeEntropy:
    def test_total_minus_equilibrium_identity(self):
        """W_rel = W - W_inf: exact when the state's masses match the
        stationary ones (the cross terms telescope by duality)."""
        g = Grid2D(28, 28)
        s = solve_pb(0.05, 0.1, g)
        w_inf = total_energy(embed_stationary(s)).W
        for seed in range(5):
            st = random_system_state(seed, g)
            rep = energy_report(st, s)
            w_rel, w = rep.W_rel, rep.W
            assert w_rel == pytest.approx(w - w_inf, abs=1e-10 * (1 + abs(w))), (
                f"seed {seed}: w_rel {w_rel} vs w - w_inf {w - w_inf}"
            )

    def test_zero_at_equilibrium(self):
        s = solve_pb(0.05, 0.1, Grid2D(24, 24))
        st = embed_stationary(s)
        assert energy_report(st, s).W_rel == pytest.approx(0.0, abs=1e-13)

    def test_nonnegative(self):
        g = Grid2D(20, 20)
        s = solve_pb(0.08, 0.2, g)
        for seed in range(8):
            st = random_system_state(seed + 50, g, M=0.08, N=0.2)
            assert energy_report(st, s).W_rel >= 0.0


class TestQuadraticEnergy:
    def test_e2_equals_twice_linearized(self):
        """E_2 = 2L exactly, same quadrature term by term."""
        g = Grid2D(22, 22)
        s = solve_pb(0.05, 0.1, g)
        for seed in range(6):
            st = random_system_state(seed + 7, g)
            rep = energy_report(st, s)
            e2, lin = rep.E2, rep.L
            assert e2 == pytest.approx(2.0 * lin, rel=1e-13), f"seed {seed}"

    def test_wrel_approaches_linearized_near_equilibrium(self):
        """|W_rel - L|/L = O(eps): the quadratic expansion becomes exact."""
        g = Grid2D(32, 32)
        s = solve_pb(0.05, 0.1, g)
        X, Y = g.cell_centers()
        eta = np.sin(2 * np.pi * X) * np.cos(np.pi * Y)
        gaps = []
        for eps in (1e-2, 1e-3):
            v = s.v.data * (1 + eps * eta)
            v *= 0.05 / (g.vol * v.sum())
            w = s.w.data * (1 - eps * eta)
            w *= 0.1 / (g.vol * w.sum())
            phi = solve_dirichlet(ScalarField(g, v - w))
            st = SystemState(MacVectorField.zeros(g), ScalarField.zeros(g),
                             ScalarField(g, v), ScalarField(g, w), phi)
            rep = energy_report(st, s)
            wr, lin = rep.W_rel, rep.L
            gaps.append(abs(wr - lin) / lin)
        assert gaps[0] <= 1e-2, f"gap {gaps[0]} at eps 1e-2"
        assert gaps[1] <= 2e-3, f"gap {gaps[1]} at eps 1e-3"
        assert gaps[1] <= gaps[0] / 5, f"gap not shrinking with eps: {gaps}"

    def test_e1_matches_manual_quadrature(self):
        g = Grid2D(16, 16)
        s = solve_pb(0.05, 0.1, g)
        st = random_system_state(77, g)
        manual = (
            2.0 * 0.5 * g.vol * ((st.u.ux ** 2).sum() + (st.u.uy ** 2).sum())
            + g.vol * (np.abs(st.v.data - s.v.data).sum()
                       + np.abs(st.w.data - s.w.data).sum())
            + h1_seminorm(ScalarField(g, st.phi.data - s.phi.data))
        )
        assert energy_report(st, s).E1 == pytest.approx(manual, rel=1e-13)


class TestCsiszarKullback:
    def test_holds_on_random_states(self):
        g = Grid2D(24, 24)
        rng = np.random.default_rng(11)
        for trial in range(60):
            M = 10.0 ** rng.uniform(-2, 0.3)
            N = 10.0 ** rng.uniform(-2, 0.3)
            s = solve_pb(M, N, g)
            st = random_system_state(1000 + trial, g, M=M, N=N)
            rep = energy_report(st, s)
            lhs, rhs = rep.ck_lhs, rep.W_rel
            assert lhs <= 4.0 * rhs * (1 + 1e-12) + 1e-14, (
                f"trial {trial} (M={M:.3g}, N={N:.3g}): {lhs} > 4*{rhs}"
            )

    def test_far_from_equilibrium_state(self):
        """v concentrated at ten times its Maxwellian still satisfies the
        bound (the constant is not tight only near equilibrium)."""
        g = Grid2D(20, 20)
        s = solve_pb(0.05, 0.1, g)
        v = s.v.data.copy()
        v[:10, :] = 0.0
        v *= 0.05 / (g.vol * v.sum())
        phi = solve_dirichlet(ScalarField(g, v - s.w.data))
        st = SystemState(MacVectorField.zeros(g), ScalarField.zeros(g),
                         ScalarField(g, v), s.w.copy(), phi)
        rep = energy_report(st, s)
        lhs, rhs = rep.ck_lhs, rep.W_rel
        assert lhs <= 4.0 * rhs, f"{lhs} > {4*rhs}"

    def test_tight_factor_not_violated_near_equilibrium(self):
        g = Grid2D(24, 24)
        s = solve_pb(0.05, 0.1, g)
        X, Y = g.cell_centers()
        eta = np.sin(2 * np.pi * X) * np.cos(np.pi * Y)
        v = s.v.data * (1 + 1e-3 * eta)
        v *= 0.05 / (g.vol * v.sum())
        phi = solve_dirichlet(ScalarField(g, v - s.w.data))
        st = SystemState(MacVectorField.zeros(g), ScalarField.zeros(g),
                         ScalarField(g, v), s.w.copy(), phi)
        rep = energy_report(st, s)
        lhs, rhs = rep.ck_lhs, rep.W_rel
        assert lhs <= 4.0 * rhs


def _report_case(name):
    """(state, equilibrium) for one row of TestReportMatchesDefinitions."""
    g = Grid2D(13, 9, 1.3, 0.7)
    s = solve_pb(0.05, 0.1, g)
    st = random_system_state(31, g, with_velocity=name != "at rest")
    cells = {"zero cell": 0.0, "5e-324 cell": 5e-324, "1e-200 cell": 1e-200}
    if name in cells:
        v = st.v.data.copy()
        v[4, 6] = cells[name]
        phi = solve_dirichlet(ScalarField(g, v - st.w.data))
        st = SystemState(st.u, st.p, ScalarField(g, v), st.w, phi)
    return st, s


REPORT_CASES = ["with velocity", "at rest", "zero cell", "5e-324 cell", "1e-200 cell"]


def masked_species_production(data, phi_data, sign, grid):
    """The production of one species with every face masked by the density
    floor, as _species_production computes it when some cell is at or below
    the floor."""
    floor = diagnostics.DENSITY_FLOOR
    with np.errstate(divide="ignore"):
        mu = np.where(data > floor, np.log(np.maximum(data, floor)), 0.0)
    mu = mu + sign * phi_data
    total = 0.0
    for cL, cR, dmu in ((data[:, :-1], data[:, 1:], (mu[:, 1:] - mu[:, :-1]) / grid.hx),
                        (data[:-1, :], data[1:, :], (mu[1:, :] - mu[:-1, :]) / grid.hy)):
        mask = (cL > floor) & (cR > floor)
        with np.errstate(divide="ignore", invalid="ignore"):
            cf = np.where(mask, 2.0 * cL * cR / (cL + cR), 0.0)
        total += float(np.sum(np.where(mask, cf * dmu * dmu, 0.0)))
    return grid.vol * total


class TestReportMatchesDefinitions:
    """energy_report shares work between its fields, and each field is still
    the same double (==) as its standalone definition. A zero cell and a
    5e-324 cell take psi's special branches and the production's density
    floor; a 1e-200 cell takes psi's tiny branch against 1 while staying
    above the floor."""

    @pytest.mark.parametrize("name", REPORT_CASES)
    def test_fields_equal_standalone_definitions(self, name):
        st, s = _report_case(name)
        g = st.grid
        rep = energy_report(st, s)
        parts = total_energy(st)
        h1 = h1_seminorm(ScalarField(g, st.phi.data - s.phi.data))
        dv, dw = st.v.data - s.v.data, st.w.data - s.w.data
        l1v, l1w = float(np.abs(dv).sum()), float(np.abs(dw).sum())
        qv, qw = float(np.sum(dv * dv / s.v.data)), float(np.sum(dw * dw / s.w.data))
        kin = parts.kinetic
        want = {
            "t": st.t,
            "mass_v": integrate(st.v),
            "mass_w": integrate(st.w),
            "kinetic": kin,
            "electric": parts.electric,
            "entropy_v": parts.entropy_v,
            "entropy_w": parts.entropy_w,
            "W": parts.W,
            "production": entropy_production(st),
            "W_rel": (_entropy_integral(st.v, s.v.data) + _entropy_integral(st.w, s.w.data)
                      + 0.5 * h1 + kin),
            "L": kin + g.vol * (0.5 * qv) + g.vol * (0.5 * qw) + 0.5 * h1,
            "E1": 2.0 * kin + g.vol * (l1v + l1w) + h1,
            "E2": 2.0 * kin + g.vol * (qv + qw) + h1,
            "ck_lhs": float(np.float64(g.vol * l1v) ** 2 + np.float64(g.vol * l1w) ** 2
                            + h1 + 2.0 * kin),
            "lady_ratio": 0.0 if st.u.is_zero() else ladyzhenskaya_ratio(st.u),
        }
        assert set(want) == set(CSV_COLUMNS)
        for field, value in want.items():
            assert getattr(rep, field) == value, f"{name}: {field}"
        assert np.isfinite([getattr(rep, c) for c in CSV_COLUMNS]).all(), name

    def test_unmasked_passes_equal_psi_and_the_masked_production(self):
        """The sums the report takes without psi's branches or the floor's
        masks, against those branches and masks. A report adds larger terms
        to them that can hide a last-bit change, and so can a sum over a
        grid: one reordered product was caught by about one comparison in
        five here, so sixteen random states join the five cases."""
        g = Grid2D(13, 9, 1.3, 0.7)
        s = solve_pb(0.05, 0.1, g)
        states = [_report_case(name)[0] for name in REPORT_CASES]
        states += [random_system_state(seed, g) for seed in range(16)]
        for k, st in enumerate(states):
            for c, c_inf, sign in ((st.v, s.v, -1.0), (st.w, s.w, +1.0)):
                for r in (1.0, c_inf.data):
                    assert diagnostics._psi_sum(c.data, r) == float(np.sum(psi(c.data, r))), k
                got = diagnostics._species_production(c, st.phi.data, sign, g)
                assert got == masked_species_production(c.data, st.phi.data, sign, g), k

    @pytest.mark.parametrize("name", REPORT_CASES)
    def test_one_velocity_gradient_per_report(self, name):
        st, s = _report_case(name)
        with mock.patch.object(diagnostics, "grad_norm_sq", wraps=diagnostics.grad_norm_sq) as d_spy, \
                mock.patch.object(fluid, "grad_norm_sq", wraps=fluid.grad_norm_sq) as f_spy:
            energy_report(st, s)
        assert d_spy.call_count + f_spy.call_count == 1

    @pytest.mark.parametrize("species", ["v", "w"])
    def test_negative_density_raises(self, species):
        st, s = _report_case("with velocity")
        getattr(st, species).data[2, 3] = -1e-30
        with pytest.raises(NonpositiveValues, match="psi argument s must be nonnegative"):
            energy_report(st, s)

    @pytest.mark.parametrize("species", ["v", "w"])
    def test_nonpositive_reference_raises(self, species):
        st, s = _report_case("with velocity")
        getattr(s, species).data[2, 3] = 0.0
        with pytest.raises(NonpositiveValues, match="psi reference weight r must be positive"):
            energy_report(st, s)


class TestFitDecay:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 2.0, 60)
        fit = fit_decay(list(zip(t, 3.0 * np.exp(-2.0 * t))))
        assert fit.lam == pytest.approx(2.0, abs=1e-10)
        assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-10)
        assert fit.r_squared == 1.0

    def test_constant_series(self):
        t = np.linspace(0.0, 2.0, 40)
        for c in (1.0, 1.0 / 3.0, np.pi):
            fit = fit_decay(list(zip(t, np.full(40, c))))
            assert abs(fit.lam) <= 1e-12, f"c={c}: lam {fit.lam}"
            assert fit.r_squared == 1.0

    def test_slightly_perturbed_exponential(self):
        t = np.linspace(0.0, 5.0, 200)
        y = np.exp(-t) * (1 + 0.01 * np.sin(t))
        fit = fit_decay(list(zip(t, y)))
        assert 0.98 <= fit.lam <= 1.02, f"lam {fit.lam}"
        assert fit.r_squared >= 0.99

    def test_default_window_drops_transient(self):
        """A contaminated head must not pollute the default fit."""
        t = np.linspace(0.0, 10.0, 300)
        y = np.exp(-2.0 * t) + 5.0 * np.exp(-40.0 * t)
        fit = fit_decay(list(zip(t, y)))
        assert fit.window[0] == pytest.approx(1.0)
        assert fit.lam == pytest.approx(2.0, rel=1e-3)

    def test_explicit_window(self):
        t = np.linspace(0.0, 4.0, 100)
        y = np.exp(-1.5 * t)
        fit = fit_decay(list(zip(t, y)), window=(2.0, 4.0))
        assert fit.lam == pytest.approx(1.5, abs=1e-9)
        assert fit.window == (2.0, 4.0)

    def test_too_few_points(self):
        t = np.linspace(0.0, 1.0, 5)
        with pytest.raises(EmptyWindow):
            fit_decay(list(zip(t, np.exp(-t))))

    def test_nonpositive_rejected(self):
        t = np.linspace(0.0, 1.0, 20)
        y = np.exp(-t)
        y[12] = 0.0
        with pytest.raises(NonpositiveValues):
            fit_decay(list(zip(t, y)))


class TestWeightedPoincare:
    def test_unit_weight_recovers_neumann_constant(self):
        """rho = 1 on the unit square: the constant is 1/pi^2 up to O(h^2);
        at 64^2 the estimate sits within 2 percent."""
        g = Grid2D(64, 64)
        c = weighted_poincare_estimate(ScalarField.full(g, 1.0))
        assert c == pytest.approx(1.0 / np.pi ** 2, rel=0.02)

    def test_frozen_value_is_deterministic(self):
        g = Grid2D(64, 64)
        c = weighted_poincare_estimate(ScalarField.full(g, 1.0))
        assert c == pytest.approx(0.10134153114578723, rel=1e-9)

    def test_doubling_weight_quarters_constant(self):
        g = Grid2D(32, 32)
        c1 = weighted_poincare_estimate(ScalarField.full(g, 1.0))
        c2 = weighted_poincare_estimate(ScalarField.full(g, 2.0))
        assert c2 == pytest.approx(c1 / 4.0, rel=1e-8)

    def test_constant_approaches_limit_under_refinement(self):
        target = 1.0 / np.pi ** 2
        errs = []
        for n in (16, 32, 64):
            g = Grid2D(n, n)
            c = weighted_poincare_estimate(ScalarField.full(g, 1.0))
            errs.append(abs(c - target))
        assert errs[0] > errs[1] > errs[2], f"no convergence: {errs}"

    def test_randomized_inequality_spot_checks(self):
        """int f^2 <= (c + 1e-6) int |grad(f rho)|^2 for random mean-zero f,
        with a nonuniform weight."""
        g = Grid2D(24, 24)
        rng = np.random.default_rng(42)
        X, Y = g.cell_centers()
        rho = ScalarField(g, 1.0 + 0.5 * np.sin(np.pi * X) * np.sin(np.pi * Y))
        c = weighted_poincare_estimate(rho)
        from ehd2d import laplacian_matrix
        A = (-laplacian_matrix(g, "neumann") * g.vol).tocsr()
        d = g.vol / (rho.data.ravel() ** 2)
        r = d * rho.data.ravel()
        ones = np.ones(g.nx * g.ny)
        for trial in range(100):
            gv = rng.standard_normal(g.nx * g.ny)
            gv -= (float(r @ gv) / float(r @ ones)) * ones
            lhsq = float(gv @ (d * gv))
            rhsq = float(gv @ (A @ gv))
            assert lhsq <= (c + 1e-6) * rhsq, (
                f"trial {trial}: {lhsq} > {(c + 1e-6) * rhsq}"
            )

    def test_nonpositive_weight_rejected(self):
        g = Grid2D(8, 8)
        with pytest.raises(NonpositiveValues):
            weighted_poincare_estimate(ScalarField.zeros(g))


class TestEnergyReport:
    def test_csv_layout(self):
        assert csv_header() == ",".join(CSV_COLUMNS)
        g = Grid2D(16, 16)
        s = solve_pb(0.05, 0.1, g)
        st = random_system_state(3, g)
        rep = energy_report(st, s)
        row = csv_row(rep)
        assert len(row.split(",")) == len(CSV_COLUMNS)

    def test_zero_velocity_reports_zero_ratio(self):
        g = Grid2D(16, 16)
        s = solve_pb(0.05, 0.1, g)
        st = random_system_state(4, g, with_velocity=False)
        rep = energy_report(st, s)
        assert rep.lady_ratio == 0.0

    def test_report_matches_manual_quadrature(self):
        """W_rel, L, E1, E2 and ck_lhs against cell-sum quadrature written
        out here; H is the quadratic form -<d, Lap_h d> of the Dirichlet
        Laplacian, which the ghost-gradient seminorm equals exactly."""
        g = Grid2D(16, 12, 1.3, 0.9)
        s = solve_pb(0.05, 0.1, g)
        for seed, with_velocity in ((8, True), (9, False)):
            st = random_system_state(seed, g, with_velocity=with_velocity)
            rep = energy_report(st, s)
            vol = g.vol
            v, w, vi, wi = st.v.data, st.w.data, s.v.data, s.w.data
            K = 0.5 * vol * ((st.u.ux ** 2).sum() + (st.u.uy ** 2).sum())
            d = ScalarField(g, st.phi.data - s.phi.data)
            H = -vol * float((d.data * apply_dirichlet_laplacian(d).data).sum())
            ent = vol * ((v * np.log(v / vi) - v + vi).sum()
                         + (w * np.log(w / wi) - w + wi).sum())
            l1v = vol * np.abs(v - vi).sum()
            l1w = vol * np.abs(w - wi).sum()
            q = vol * (((v - vi) ** 2 / vi).sum() + ((w - wi) ** 2 / wi).sum())
            expect = {
                "W_rel": ent + 0.5 * H + K,
                "L": K + 0.5 * q + 0.5 * H,
                "E1": 2.0 * K + l1v + l1w + H,
                "E2": 2.0 * K + q + H,
                "ck_lhs": l1v ** 2 + l1w ** 2 + H + 2.0 * K,
            }
            for name, value in expect.items():
                assert getattr(rep, name) == pytest.approx(value, rel=1e-12), (
                    f"{name}, velocity {with_velocity}"
                )
            assert (rep.kinetic == 0.0) != with_velocity
            assert rep.W == pytest.approx(total_energy(st).W, rel=1e-14)
            assert rep.production == pytest.approx(entropy_production(st), rel=1e-14)
            assert rep.mass_v == pytest.approx(integrate(st.v), rel=1e-14)
