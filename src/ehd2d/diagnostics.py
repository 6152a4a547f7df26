"""Energy, entropy and decay diagnostics for the coupled system.

Everything the package verifies numerically is computed here from a system
state (duck-typed: attributes u, v, w, phi, t) and, where relevant, the
stationary solution it relaxes toward:

* total energy W = int psi(v) + psi(w) + 1/2 |grad phi|^2 + 1/2 |u|^2 with
  psi(s) = s log s - s + 1, and its decomposition;
* entropy production, the nonnegative dissipation rate -dW/dt, built from
  face log-gradients with harmonic-mean face densities so it vanishes
  exactly on the discrete Boltzmann equilibrium;
* the functionals measured against the stationary state: the relative
  entropy W_rel, the linearized (quadratic) energy L, the error functionals
  E1 and E2, and the left side of the Csiszar-Kullback comparison (squared
  L1 distances against 4 W_rel). Only energy_report computes them, each
  shared term once per report; EnergyReport defines them;
* exponential decay fits on recorded time series;
* the weighted Poincare constant, via an inverse power iteration on the
  constrained generalized eigenproblem.

Electric-energy terms use the Dirichlet-ghost gradient quadrature, which
agrees exactly with the quadratic form of the Poisson operator; that makes
identities like the W_rel decomposition hold to solver tolerance instead of
only to O(h^2).
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyWindow, NonConvergence, NonpositiveValues
from .grid import (
    ScalarField,
    grad_norm_sq,
    h1_seminorm,
    integrate,
    kinetic_energy,
)
from .fluid import ladyzhenskaya_ratio
from .poisson import _stencil, solve_neumann

DENSITY_FLOOR = 1e-300


def psi(s, r):
    """Boltzmann entropy density psi_r(s) = s log(s/r) - s + r.

    Nonnegative, zero only at s = r; the s = 0 limit returns r. Evaluated as
    r((1+d) log1p(d) - d) with d = (s-r)/r, accurate also for s close to r.
    Where s is positive but below about eps r / 2, 1 + d rounds to 0 and that
    form to 0 * inf, so those entries take r - s + s (log s - log r).
    Accepts scalars or arrays (r may be a field of weights).
    """
    s_arr = np.asarray(s, dtype=float)
    r_arr = np.asarray(r, dtype=float)
    if np.any(r_arr <= 0.0):
        raise NonpositiveValues("psi reference weight r must be positive")
    if np.any(s_arr < 0.0):
        raise NonpositiveValues("psi argument s must be nonnegative")
    d = (s_arr - r_arr) / r_arr
    with np.errstate(invalid="ignore", divide="ignore"):
        val = r_arr * ((1.0 + d) * np.log1p(d) - d)
    val = np.where(s_arr == 0.0, r_arr, val)
    tiny = (1.0 + d == 0.0) & (s_arr > 0.0)
    if tiny.any():
        s_t, r_t = (a[tiny] for a in np.broadcast_arrays(s_arr, r_arr))
        val[tiny] = r_t - s_t + s_t * (np.log(s_t) - np.log(r_t))
    if val.ndim == 0:
        return float(val)
    return val


def _entropy_integral(field, weight):
    return field.grid.vol * float(np.sum(psi(field.data, weight)))


@dataclass
class EnergyBreakdown:
    entropy_v: float
    entropy_w: float
    electric: float
    kinetic: float
    W: float


def total_energy(state):
    """The four components of W and their sum."""
    entropy_v = _entropy_integral(state.v, 1.0)
    entropy_w = _entropy_integral(state.w, 1.0)
    electric = 0.5 * h1_seminorm(state.phi)
    kinetic = kinetic_energy(state.u)
    return EnergyBreakdown(
        entropy_v, entropy_w, electric, kinetic,
        entropy_v + entropy_w + electric + kinetic,
    )


def _species_production(c, phi_data, sign, grid):
    """Face quadrature of c |grad(log c + sign*phi)|^2, harmonic face density."""
    data = c.data
    ph = phi_data
    with np.errstate(divide="ignore"):
        mu = np.where(data > DENSITY_FLOOR, np.log(np.maximum(data, DENSITY_FLOOR)), 0.0)
    mu = mu + sign * ph
    total = 0.0
    for axis, h in ((1, grid.hx), (0, grid.hy)):
        if axis == 1:
            cL, cR = data[:, :-1], data[:, 1:]
            dmu = (mu[:, 1:] - mu[:, :-1]) / h
        else:
            cL, cR = data[:-1, :], data[1:, :]
            dmu = (mu[1:, :] - mu[:-1, :]) / h
        mask = (cL > DENSITY_FLOOR) & (cR > DENSITY_FLOOR)
        with np.errstate(divide="ignore", invalid="ignore"):
            cf = np.where(mask, 2.0 * cL * cR / (cL + cR), 0.0)
        total += float(np.sum(np.where(mask, cf * dmu * dmu, 0.0)))
    return grid.vol * total


def entropy_production(state):
    """Dissipation rate: int v|grad(log v - phi)|^2 + w|grad(log w + phi)|^2 + |grad u|^2.

    Interior faces only (the boundary fluxes vanish); cells at or below the
    density floor contribute nothing.
    """
    g = state.v.grid
    pv = _species_production(state.v, state.phi.data, -1.0, g)
    pw = _species_production(state.w, state.phi.data, +1.0, g)
    return pv + pw + grad_norm_sq(state.u)


# ---------------------------------------------------------------------------
# decay fitting
# ---------------------------------------------------------------------------

@dataclass
class DecayFit:
    lam: float
    intercept: float
    r_squared: float
    window: tuple


def fit_decay(series, window=None, transient_frac=0.1):
    """Least-squares exponential fit log y = intercept - lam * t.

    series is a sequence of (t, y) pairs with y > 0. The default window
    drops the leading transient_frac of the time span. Needs at least 10
    samples inside the window.
    """
    arr = np.asarray(list(series), dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] == 0:
        raise EmptyWindow("series must be a nonempty list of (t, y) pairs")
    t = arr[:, 0]
    y = arr[:, 1]
    if window is None:
        t0 = t.min() + transient_frac * (t.max() - t.min())
        window = (float(t0), float(t.max()))
    mask = (t >= window[0]) & (t <= window[1])
    if int(mask.sum()) < 10:
        raise EmptyWindow(
            f"window {window} holds {int(mask.sum())} samples, need at least 10"
        )
    tw = t[mask]
    yw = y[mask]
    if np.any(yw <= 0.0):
        raise NonpositiveValues("decay fit requires positive values")
    logy = np.log(yw)
    slope, intercept = np.polyfit(tw, logy, 1)
    pred = slope * tw + intercept
    ss_res = float(np.sum((logy - pred) ** 2))
    ss_tot = float(np.sum((logy - logy.mean()) ** 2))
    # Constant or exactly-exponential data leave both sums at rounding
    # scale, where their ratio is meaningless; that is a perfect fit.
    noise = logy.size * (16.0 * np.finfo(float).eps * (1.0 + np.abs(logy).max())) ** 2
    if ss_tot <= noise or ss_res <= noise:
        r2 = 1.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return DecayFit(float(-slope), float(intercept), float(r2), (float(window[0]), float(window[1])))


# ---------------------------------------------------------------------------
# weighted Poincare constant
# ---------------------------------------------------------------------------

def weighted_poincare_estimate(rho, tol=1e-12, max_iter=500):
    """Smallest c with int f^2 <= c int |grad(f rho)|^2 over mean-zero f.

    Substituting g = f rho turns the Rayleigh quotient into the generalized
    eigenproblem A g = mu (D g - theta r) on the hyperplane r^T g = 0, with
    A the Neumann stiffness matrix of g (interior-face gradient quadrature),
    D = diag(vol/rho^2) and r = D rho the constraint covector. Inverse power
    iteration solves it: each sweep hands the constraint-compatible
    right-hand side to the Neumann solver of the poisson module, fixes the
    constant along the kernel afterwards, and the Rayleigh quotient of the
    limit gives mu_min; returned is c = 1/mu_min.
    """
    g = rho.grid
    if np.any(rho.data <= 0.0):
        raise NonpositiveValues("weighted Poincare weight must be positive")
    n = g.nx * g.ny
    vol = g.vol
    rho_flat = rho.data.ravel()
    d = vol / (rho_flat * rho_flat)
    r = d * rho_flat
    ones = np.ones(n)
    r_dot_1 = float(r @ ones)

    rng = np.random.default_rng(7)
    gvec = rng.standard_normal(n)
    gvec -= (float(r @ gvec) / r_dot_1) * ones
    gvec /= np.sqrt(float(gvec @ (d * gvec)))

    mu_prev = np.inf
    for k in range(1, max_iter + 1):
        b = d * gvec
        b -= (float(ones @ b) / float(ones @ r)) * r
        # A = -vol Lap_N, so A x = b is the Neumann solve of -b/vol.
        x = solve_neumann(ScalarField(g, (-b / vol).reshape(rho.data.shape))).data.ravel()
        x -= (float(r @ x) / r_dot_1) * ones
        dx = d * x
        # x^T A x by the Neumann stencil, A = -vol Lap_N
        xAx = -vol * float(x @ _stencil(x.reshape(rho.data.shape), g, "neumann").ravel())
        mu = xAx / float(x @ dx)
        gvec = x / np.sqrt(float(x @ dx))
        if abs(mu - mu_prev) <= tol * abs(mu):
            return 1.0 / mu
        mu_prev = mu
    raise NonConvergence(max_iter, abs(mu - mu_prev), "Poincare eigeniteration")


# ---------------------------------------------------------------------------
# per-step report
# ---------------------------------------------------------------------------

CSV_COLUMNS = (
    "t", "mass_v", "mass_w", "kinetic", "electric", "entropy_v", "entropy_w",
    "W", "production", "W_rel", "L", "E1", "E2", "ck_lhs", "lady_ratio",
)


@dataclass
class EnergyReport:
    """Everything the CSV records about one instant of a run.

    mass_v, mass_w, the four parts of W and W itself (total_energy) and
    production (entropy_production) need no equilibrium. The next five
    fields are measured against the stationary state (v_inf, w_inf, phi_inf)
    at rest. With dv = v - v_inf, dw = w - w_inf, the kinetic energy
    K = int 1/2 |u|^2 and H = int |grad(phi - phi_inf)|^2 in the
    Dirichlet-ghost quadrature:

    * W_rel = int psi(v, v_inf) + psi(w, w_inf) + H/2 + K, the relative
      entropy. When the masses match the stationary ones it equals
      W - W_inf, W_inf being W at the stationary state: the cross terms
      telescope by duality.
    * L = K + int dv^2/(2 v_inf) + dw^2/(2 w_inf) + H/2, the quadratic
      (linearized) energy: term by term the second-order Taylor form of
      W_rel, so W_rel/L -> 1 near equilibrium.
    * E_p = 2K + int |dv|^p/v_inf^(p-1) + |dw|^p/w_inf^(p-1) + H for
      p = 1, 2, the error functionals; E2 = 2L in the same quadrature.
    * ck_lhs = ||dv||_1^2 + ||dw||_1^2 + H + 2K, the left side of the
      Csiszar-Kullback comparison whose right side is W_rel. The entropy
      inequality ||f-g||_1^2 <= ((2||f||_1 + 4||g||_1)/3) int psi(f, g)
      supports it: ck_lhs <= c W_rel with c = ck_constant = max(4, (2||v||_1
      + 4M)/3, (2||w||_1 + 4N)/3), which is 4 while M and N are at most 2.

    lady_ratio is reported as 0.0 for an exactly zero velocity field (the
    underlying ratio is undefined there).
    """
    t: float
    mass_v: float
    mass_w: float
    kinetic: float
    electric: float
    entropy_v: float
    entropy_w: float
    W: float
    production: float
    W_rel: float
    L: float
    E1: float
    E2: float
    ck_lhs: float
    lady_ratio: float


def energy_report(state, s):
    """Evaluate every recorded functional of the state against equilibrium s.

    Each term the fields share is computed once: K, H, dv and dw, their L1
    sums and their sums of d^2/c_inf.
    """
    vol = state.v.grid.vol
    parts = total_energy(state)
    kin = parts.kinetic
    h1 = h1_seminorm(ScalarField(state.phi.grid, state.phi.data - s.phi.data))
    dv = state.v.data - s.v.data
    dw = state.w.data - s.w.data
    l1v = float(np.abs(dv).sum())
    l1w = float(np.abs(dw).sum())
    qv = float(np.sum(dv * dv / s.v.data))
    qw = float(np.sum(dw * dw / s.w.data))
    lady = 0.0 if state.u.is_zero() else ladyzhenskaya_ratio(state.u)
    return EnergyReport(
        t=float(state.t),
        mass_v=integrate(state.v),
        mass_w=integrate(state.w),
        kinetic=parts.kinetic,
        electric=parts.electric,
        entropy_v=parts.entropy_v,
        entropy_w=parts.entropy_w,
        W=parts.W,
        production=entropy_production(state),
        W_rel=(_entropy_integral(state.v, s.v.data)
               + _entropy_integral(state.w, s.w.data) + 0.5 * h1 + kin),
        L=kin + vol * (0.5 * qv) + vol * (0.5 * qw) + 0.5 * h1,
        E1=2.0 * kin + vol * (l1v + l1w) + h1,
        E2=2.0 * kin + vol * (qv + qw) + h1,
        # numpy's scalar power rounds as Python's and overflows to inf, not an error
        ck_lhs=float(np.float64(vol * l1v) ** 2 + np.float64(vol * l1w) ** 2 + h1 + 2.0 * kin),
        lady_ratio=lady,
    )


def ck_constant(report, M, N):
    """c of ck_lhs <= c W_rel for a report against the equilibrium of masses M, N."""
    return max(4.0, (2.0 * report.mass_v + 4.0 * M) / 3.0, (2.0 * report.mass_w + 4.0 * N) / 3.0)


def csv_header():
    return ",".join(CSV_COLUMNS)


def csv_row(report):
    return ",".join(f"{getattr(report, c):.17g}" for c in CSV_COLUMNS)
