"""Release gate: thirteen end-to-end checks with hard tolerances.

Each test drives one numbered check and prints a single "criterion NN
PASS/FAIL" line with the measured numbers (run with -s to see the lines as
they happen; under plain pytest each check still reports as its own test).
The trajectories are expensive, so they are computed once in module-scoped
fixtures and shared: the long relaxation feeds the decay fits, the
inequality sweep, and the velocity-ratio sweep alike.

Check 7 contains a deliberate red: the relative-entropy and error-norm
decay rates are fitted cleanly (lambda > 0, r^2 >= 0.99) but differ by a
factor close to 2, because one quantity is quadratic near equilibrium and
the other is not. The clause demanding agreement within 25 percent
therefore fails for these definitions, and this suite reports that honestly
instead of loosening the comparison; the fitted rates are printed so the
factor is visible.
"""

import time

import numpy as np
import pytest

from ehd2d import (
    Grid2D,
    MacVectorField,
    ScalarField,
    SystemState,
    embed_stationary,
    energy_report,
    fit_decay,
    laplacian_matrix,
    load_config,
    lp_norm,
    run,
    sinh_form_check,
    solve_dirichlet,
    solve_pb,
    step,
    weighted_poincare_estimate,
)


# every test here is one of the thirteen criteria; `pytest -m "not gate"`
# runs the unit suite without them
pytestmark = pytest.mark.gate


def _criterion(num, ok, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _timed_run(preset, overrides):
    cfg = load_config(preset=preset, overrides=overrides)
    t0 = time.perf_counter()
    res = run(cfg, write_outputs=False)
    return cfg, res, time.perf_counter() - t0


def _ck_slack(grid):
    return 1e-8 + 4.0 * (grid.hx ** 2 + grid.hy ** 2)


# ---------------------------------------------------------------------------
# shared trajectories
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def vortex_long():
    """2000 steps of the stirred double vortex at 64^2 (check 1)."""
    return _timed_run("vortex-charge",
                      ["time.t_max=2.0", "output.record_every=10"])


@pytest.fixture(scope="module")
def dissipation_runs():
    """Relaxation at dt, dt/2, dt/4 with every step recorded (check 2)."""
    t0 = time.perf_counter()
    runs = {}
    for dt in (2e-3, 1e-3, 5e-4):
        cfg = load_config(preset="relax-small-mass", overrides=[
            f"time.dt={dt}", "time.t_max=0.5", "output.record_every=1"])
        runs[dt] = (cfg, run(cfg, write_outputs=False))
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def matching_runs():
    """Joint (dt, h) halving for the production-dissipation residual (check 3)."""
    levels = []
    for n, dt in ((32, 4e-3), (64, 2e-3), (128, 1e-3)):
        cfg = load_config(preset="relax-small-mass", overrides=[
            f"grid.nx={n}", f"grid.ny={n}", f"time.dt={dt}",
            "time.t_max=0.2", "output.record_every=1"])
        levels.append((cfg, run(cfg, write_outputs=False)))
    return levels


@pytest.fixture(scope="module")
def decay_run():
    """Full relaxation to t = 5 at 64^2 (checks 7, 8, 12)."""
    return _timed_run("relax-small-mass", ["output.record_every=10"])


@pytest.fixture(scope="module")
def near_equilibrium_run():
    """Multiplicative eps = 1e-3 perturbation of the stationary state (check 9)."""
    return _timed_run("near-equilibrium", ["output.record_every=10"])


@pytest.fixture(scope="module")
def refinement_runs():
    """32/64/128 refinement of the relaxation to t = 1, dt scaled with h^2 (check 11)."""
    levels = []
    for n, dt in ((32, 8e-3), (64, 2e-3), (128, 5e-4)):
        cfg = load_config(preset="relax-small-mass", overrides=[
            f"grid.nx={n}", f"grid.ny={n}", f"time.dt={dt}",
            "time.t_max=1.0", "output.record_every=10"])
        levels.append((cfg, run(cfg, write_outputs=False)))
    return levels


# ---------------------------------------------------------------------------
# the thirteen checks
# ---------------------------------------------------------------------------

def test_criterion_01_mass_conservation(vortex_long):
    cfg, res, elapsed = vortex_long
    mv = np.array([r.mass_v for r in res.reports])
    mw = np.array([r.mass_w for r in res.reports])
    drift_v = np.abs(mv - mv[0]).max() / mv[0]
    drift_w = np.abs(mw - mw[0]).max() / mw[0]
    steps = round(res.state.t / cfg.dt)
    ok = drift_v <= 1e-12 and drift_w <= 1e-12 and elapsed <= 60.0
    _criterion(1, ok,
               f"mass drift over {steps} steps: v {drift_v:.3e}, w {drift_w:.3e} "
               f"(bound 1e-12), {elapsed:.1f}s (cap 60s)")


def test_criterion_02_energy_dissipation(dissipation_runs):
    runs, elapsed = dissipation_runs
    pos_total = 0
    finest = min(runs)
    max_inc_finest = None
    for dt, (cfg, res) in runs.items():
        w = np.array([r.W for r in res.reports])
        inc = np.diff(w)
        pos_total += int((inc > 0.0).sum())
        if dt == finest:
            max_inc_finest = float(inc.max())
    ok = (max_inc_finest <= 1e-3 * finest and pos_total == 0
          and elapsed <= 120.0)
    _criterion(2, ok,
               f"max W increment at dt={finest:g}: {max_inc_finest:.3e} "
               f"(bound {1e-3 * finest:.1e}), positive increments {pos_total}, "
               f"{elapsed:.1f}s (cap 120s)")


def test_criterion_03_production_matches_dissipation(matching_runs):
    # The discrete energy identity pairs the increment W(t+dt) - W(t) with
    # the production of the arrival state (the implicit update dissipates
    # along the state it steps to), so that is the pairing measured here.
    # C = 6.0 was frozen from the measured constants 3.0/3.7/4.6 on the
    # three levels.
    errs, scales = [], []
    for cfg, res in matching_runs:
        t = np.array([r.t for r in res.reports])
        w = np.array([r.W for r in res.reports])
        p = np.array([r.production for r in res.reports])
        resid = np.abs(np.diff(w) / np.diff(t) + p[1:]).max()
        errs.append(float(resid))
        scales.append(cfg.dt + cfg.grid.hx ** 2)
    within = [e <= 6.0 * s for e, s in zip(errs, scales)]
    shrinks = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
    ok = all(within) and all(s >= 1.8 for s in shrinks)
    _criterion(3, ok,
               f"residuals {[f'{e:.3e}' for e in errs]} vs 6(dt+h^2) "
               f"{[f'{6*s:.3e}' for s in scales]}, shrink factors "
               f"{[f'{s:.2f}' for s in shrinks]} (need >= 1.8)")


def test_criterion_04_stationary_solver():
    # Equal masses: the solver must see the flat solution immediately.
    worst_sym, worst_time = 0.0, 0.0
    for n in (32, 64, 128):
        t0 = time.perf_counter()
        s = solve_pb(0.1, 0.1, Grid2D(n, n, 4.0, 4.0))
        worst_time = max(worst_time, time.perf_counter() - t0)
        worst_sym = max(worst_sym, lp_norm(s.phi, np.inf))
    # Asymmetric masses: residual and iteration contract, the sign bound,
    # and the hyperbolic-sine form of the field equation. With the
    # orientation used here (potential solving v - w with cations along
    # +phi) the anion-majority potential is nonnegative; the one-sided
    # pointwise bound is therefore checked as min phi >= -1e-10, which is
    # the same statement under the opposite orientation phi -> -phi.
    s = solve_pb(0.05, 0.1, Grid2D(64, 64, 4.0, 4.0))
    sinh_res = sinh_form_check(s)
    sign_ok = float(s.phi.data.min()) >= -1e-10
    ok = (worst_sym <= 1e-10 and worst_time <= 1.0
          and s.residual <= 1e-10 and s.iterations <= 50
          and sign_ok and sinh_res <= 1e-9)
    _criterion(4, ok,
               f"equal-mass |phi| {worst_sym:.2e} in {worst_time:.2f}s; "
               f"asymmetric residual {s.residual:.2e} in {s.iterations} iters, "
               f"min phi {float(s.phi.data.min()):.2e} (one-signed), "
               f"sinh-form residual {sinh_res:.2e}")


def test_criterion_05_small_mass_limit():
    norms = []
    for scale in (1.0, 0.1, 0.01):
        s = solve_pb(0.05 * scale, 0.1 * scale, Grid2D(64, 64, 4.0, 4.0))
        norms.append(lp_norm(s.phi, np.inf))
    ok = norms[0] > norms[1] > norms[2] and norms[2] <= norms[0] / 50.0
    _criterion(5, ok,
               f"|phi| at mass scales 1, 1/10, 1/100: "
               f"{norms[0]:.3e}, {norms[1]:.3e}, {norms[2]:.3e} "
               f"(final must be <= first/50 = {norms[0] / 50:.3e})")


def test_criterion_06_discrete_equilibrium_frozen():
    cfg = load_config(preset="relax-small-mass", overrides=["time.dt=2e-3"])
    s = solve_pb(cfg.M, cfg.N, cfg.grid)
    st = embed_stationary(s)
    ref = st.copy()
    t0 = time.perf_counter()
    for _ in range(100):
        st = step(st, cfg.dt)
    elapsed = time.perf_counter() - t0
    diff = max(
        float(np.abs(st.v.data - ref.v.data).max()),
        float(np.abs(st.w.data - ref.w.data).max()),
        float(np.abs(st.phi.data - ref.phi.data).max()),
        float(max(np.abs(st.u.ux).max(), np.abs(st.u.uy).max())),
    )
    ok = diff <= 1e-9 and elapsed <= 10.0
    _criterion(6, ok,
               f"max drift off the Maxwellian after 100 steps: {diff:.3e} "
               f"(bound 1e-9), {elapsed:.1f}s (cap 10s)")


def test_criterion_07_exponential_decay(decay_run):
    cfg, res, elapsed = decay_run
    t = np.array([r.t for r in res.reports])
    wrel = np.array([r.W_rel for r in res.reports])
    e1 = np.array([r.E1 for r in res.reports])
    fw = fit_decay(list(zip(t, wrel)))
    f1 = fit_decay(list(zip(t, e1)))
    agree = abs(fw.lam - f1.lam) / max(fw.lam, f1.lam)
    ok = (fw.lam > 0.0 and f1.lam > 0.0
          and fw.r_squared >= 0.99 and f1.r_squared >= 0.99
          and agree <= 0.25 and elapsed <= 300.0)
    _criterion(7, ok,
               f"W_rel rate {fw.lam:.4f} (r^2 {fw.r_squared:.5f}), "
               f"E1 rate {f1.lam:.4f} (r^2 {f1.r_squared:.5f}), "
               f"relative gap {agree:.3f} vs allowed 0.25 "
               f"(W_rel is quadratic near equilibrium, E1 is not, so the "
               f"rates differ by a factor close to 2), {elapsed:.0f}s (cap 300s)")


def test_criterion_08_csiszar_kullback(vortex_long, dissipation_runs,
                                       matching_runs, decay_run,
                                       near_equilibrium_run, refinement_runs):
    # every recorded step of every shared trajectory
    checked = 0
    worst = -np.inf
    trajectories = (
        [(vortex_long[0], vortex_long[1])]
        + [pair for pair in dissipation_runs[0].values()]
        + list(matching_runs)
        + [(decay_run[0], decay_run[1])]
        + [(near_equilibrium_run[0], near_equilibrium_run[1])]
        + list(refinement_runs)
    )
    ok = True
    for cfg, res in trajectories:
        slack = _ck_slack(cfg.grid)
        for rep in res.reports:
            margin = rep.ck_lhs - (4.0 * rep.W_rel * (1.0 + 1e-6) + slack)
            worst = max(worst, margin)
            ok &= margin <= 0.0
            checked += 1
    # plus a thousand randomized admissible states
    g = Grid2D(32, 32)
    slack = _ck_slack(g)
    rng = np.random.default_rng(2026)
    for pair in range(50):
        M = 10.0 ** rng.uniform(-2, 0.3)
        N = 10.0 ** rng.uniform(-2, 0.3)
        s = solve_pb(M, N, g)
        for _ in range(20):
            v = rng.uniform(0.0, 2.0, (g.ny, g.nx))
            v *= M / (g.vol * v.sum())
            w = rng.uniform(0.0, 2.0, (g.ny, g.nx))
            w *= N / (g.vol * w.sum())
            u = MacVectorField.zeros(g)
            u.ux[:, 1:-1] = 0.3 * rng.standard_normal((g.ny, g.nx - 1))
            u.uy[1:-1, :] = 0.3 * rng.standard_normal((g.ny - 1, g.nx))
            phi = solve_dirichlet(ScalarField(g, v - w))
            st = SystemState(u, ScalarField.zeros(g), ScalarField(g, v),
                             ScalarField(g, w), phi)
            rep = energy_report(st, s)
            margin = rep.ck_lhs - (4.0 * rep.W_rel * (1.0 + 1e-6) + slack)
            worst = max(worst, margin)
            ok &= margin <= 0.0
            checked += 1
    _criterion(8, ok,
               f"{checked} states checked (recorded trajectories plus 1000 "
               f"randomized), worst margin {worst:.3e} (must be <= 0)")


def test_criterion_09_linearization_consistency(near_equilibrium_run):
    cfg, res, elapsed = near_equilibrium_run
    gap0 = abs(res.reports[0].W_rel - res.reports[0].L) / res.reports[0].L
    L = np.array([r.L for r in res.reports])
    increases = int((np.diff(L) > 0.0).sum())
    ok = gap0 <= 0.01 and increases == 0
    _criterion(9, ok,
               f"|W_rel - L|/L at t=0: {gap0:.3e} (bound 1e-2), "
               f"L increases {increases} times over {len(L)} records")


def test_criterion_10_weighted_poincare():
    target = 1.0 / np.pi ** 2
    errs = []
    cs = {}
    for n in (16, 32, 64):
        c = weighted_poincare_estimate(ScalarField.full(Grid2D(n, n), 1.0))
        cs[n] = c
        errs.append(abs(c - target) / target)
    converging = errs[0] > errs[1] > errs[2]
    within = errs[-1] <= 0.02
    # randomized inequality spot-checks at the computed constant
    g = Grid2D(24, 24)
    X, Y = g.cell_centers()
    rho = ScalarField(g, 1.0 + 0.5 * np.sin(np.pi * X) * np.sin(np.pi * Y))
    c = weighted_poincare_estimate(rho)
    A = (-laplacian_matrix(g, "neumann") * g.vol).tocsr()
    d = g.vol / (rho.data.ravel() ** 2)
    r = d * rho.data.ravel()
    ones = np.ones(g.nx * g.ny)
    rng = np.random.default_rng(31)
    spot_ok = True
    for _ in range(200):
        gv = rng.standard_normal(g.nx * g.ny)
        gv -= (float(r @ gv) / float(r @ ones)) * ones
        spot_ok &= float(gv @ (d * gv)) <= c * (1.0 + 1e-6) * float(gv @ (A @ gv))
    ok = converging and within and spot_ok
    _criterion(10, ok,
               f"constant at 16/32/64: "
               f"{cs[16]:.6f}/{cs[32]:.6f}/{cs[64]:.6f} vs 1/pi^2 "
               f"{target:.6f} (final off by {errs[-1] * 100:.2f}%, cap 2%), "
               f"200 randomized spot-checks {'passed' if spot_ok else 'FAILED'}")


def test_criterion_11_refinement_orders(refinement_runs):
    # elliptic solver against a manufactured solution
    perrs = []
    for n in (32, 64, 128):
        g = Grid2D(n, n)
        X, Y = g.cell_centers()
        exact = np.sin(np.pi * X) * np.sin(np.pi * Y)
        phi = solve_dirichlet(ScalarField(g, -2.0 * np.pi ** 2 * exact))
        perrs.append(lp_norm(ScalarField(g, phi.data - exact), 2))
    porders = [np.log2(perrs[i] / perrs[i + 1]) for i in range(2)]
    poisson_ok = all(1.8 <= o <= 2.2 for o in porders)
    # coupled scheme: W_rel at t = 1 under joint refinement, successive
    # differences give the observed order
    wr = [res.reports[-1].W_rel for _, res in refinement_runs]
    d01, d12 = wr[0] - wr[1], wr[1] - wr[2]
    coupled_order = float(np.log2(d01 / d12)) if d01 > 0 and d12 > 0 else float("nan")
    coupled_ok = 1.5 <= coupled_order <= 2.2
    _criterion(11, poisson_ok and coupled_ok,
               f"elliptic orders {[f'{o:.3f}' for o in porders]} "
               f"(need [1.8, 2.2]); coupled W_rel(t=1) = "
               f"{[f'{v:.10f}' for v in wr]}, order {coupled_order:.3f} "
               f"(need [1.5, 2.2])")


def test_criterion_12_velocity_ratio(vortex_long, dissipation_runs, decay_run,
                                     near_equilibrium_run, refinement_runs):
    worst = 0.0
    checked = 0
    trajectories = (
        [(vortex_long[0], vortex_long[1])]
        + [pair for pair in dissipation_runs[0].values()]
        + [(decay_run[0], decay_run[1])]
        + [(near_equilibrium_run[0], near_equilibrium_run[1])]
        + list(refinement_runs)
    )
    for cfg, res in trajectories:
        if cfg.nx < 64 or cfg.ny < 64:
            continue
        for rep in res.reports:
            worst = max(worst, rep.lady_ratio)
            checked += 1
    ok = worst <= 1.05 and checked > 0
    _criterion(12, ok,
               f"largest velocity L^4/(L^2 grad) ratio over {checked} recorded "
               f"fields at 64^2 and above: {worst:.4f} (bound 1.05)")


def test_criterion_13_byte_identical_output(tmp_path):
    blobs = []
    for name in ("first", "second"):
        cfg = load_config(preset="vortex-charge", overrides=[
            "time.t_max=0.05", "output.record_every=1",
            f"output.dir={tmp_path / name}"])
        res = run(cfg)
        with open(res.csv_path, "rb") as fh:
            blobs.append(fh.read())
    ok = blobs[0] == blobs[1] and len(blobs[0]) > 0
    _criterion(13, ok,
               f"two identical runs wrote {len(blobs[0])} bytes each, "
               f"{'identical' if ok else 'DIFFERENT'}")
