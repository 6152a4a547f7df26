"""Nernst-Planck charge transport with Scharfetter-Gummel exponential fitting.

Each species obeys c_t + div F = 0 with flux

    F = -(grad c - s c grad phi) + u c,      s = -1 cation, s = +1 anion,

zero total flux through the walls, and advection by the face velocity u. The
diffusion/drift part of the face flux uses the Scharfetter-Gummel weights

    F_sg = (1/h) [ B(s dpsi) cL - B(-s dpsi) cR ],   B(x) = x/(e^x - 1),

which vanish identically on the discrete Boltzmann profile (c proportional
to e^{phi} for s = -1, e^{-phi} for s = +1), so the scheme's steady states
are the exact discrete Maxwellians rather than second-order approximations
of them. Both species share one B(dpsi), B(-dpsi) pair per face: the cation
weights cL by B(-dpsi) and cR by B(dpsi), the anion the reverse. Advection
uses first-order upwinding.

The step is split backward Euler (Lie/Yanenko fractional steps): with the
potential and velocity frozen at the step's start, the flux divergence is
split as L = L_x + L_y by face orientation, and each species takes an x
sweep (I - dt L_x) c* = c and then a y sweep (I - dt L_y) c' = c*. Every
sweep matrix is tridiagonal along grid lines and is an M-matrix with unit
column sums, so each sweep by itself keeps the properties the package
checks hardest:

* positivity for every dt (the inverse of an M-matrix is nonnegative),
* exact mass conservation: L_x and L_y have zero column sums and decouple
  the lines, so every line keeps its mass through a sweep, up to rounding
  and not truncation error. A direct solve rounds at about
  eps * dt * ||L||, so each solved line is rescaled to its input's mass,
  which holds the mass to rounding at every dt, and
* the discrete Maxwellian as a fixed point (its SG flux vanishes on every
  face, so L_x and L_y annihilate it separately).

The splitting error is O(dt), the same order as the lag of the potential.
All lines of one direction are solved by one banded (tridiagonal) solve,
so a step makes no sparse factorization.
"""

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_banded
# benchmark/spans.py wraps transport.splu to count transport LUs; the step makes none.
from scipy.sparse.linalg import splu  # noqa: F401

from .errors import NonConvergence
from .grid import ROUNDING, ScalarField

CATION_SIGN = -1
ANION_SIGN = +1


def bernoulli(x):
    """B(x) = x/(e^x - 1) with the removable singularity filled in.

    Evaluated as x e^{-x}/(1 - e^{-x}) for x > 0 and x/(e^x - 1) for x < 0 so
    it never overflows; |x| < 1e-10 uses the Taylor polynomial 1 - x/2 + x^2/12.
    """
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = np.abs(x) < 1e-10
    pos = (x > 0.0) & ~small
    neg = (x < 0.0) & ~small
    xs = x[small]
    out[small] = 1.0 - 0.5 * xs + xs * xs / 12.0
    xp = x[pos]
    out[pos] = xp * np.exp(-xp) / (-np.expm1(-xp))
    xn = x[neg]
    out[neg] = xn / np.expm1(xn)
    if out.ndim == 0:
        return float(out)
    return out


def _sweep_bands(phi, u, direction):
    """Generators L_x or L_y of both species across the faces of one orientation.

    Returns {CATION_SIGN: (upper, lower), ANION_SIGN: (upper, lower)}, one
    grid line per row: the rows of the grid for direction "x", its columns
    (transposed arrays) for "y". Within a line, upper[:, i] = L[i-1, i] and
    lower[:, i] = L[i+1, i]; the diagonal is -(upper + lower), so every
    column sums to zero. The line ends carry zeros, which is the discrete
    no-flux condition.
    """
    g = phi.grid
    if direction == "x":
        ph, uf, h = phi.data, u.ux[:, 1:-1], g.hx
    else:
        ph, uf, h = phi.data.T, u.uy[1:-1, :].T, g.hy
    dpsi = np.diff(ph, axis=1)
    b_plus, b_minus = bernoulli(dpsi) / h, bernoulli(-dpsi) / h
    up_l, up_r = np.maximum(uf, 0.0), np.maximum(-uf, 0.0)
    bands = {}
    # a multiplies cL, b multiplies cR in the face flux F = a cL - b cR
    for sign, a, b in ((CATION_SIGN, b_minus, b_plus), (ANION_SIGN, b_plus, b_minus)):
        upper = np.zeros(ph.shape)
        lower = np.zeros(ph.shape)
        upper[:, 1:] = (b + up_r) / h
        lower[:, :-1] = (a + up_l) / h
        bands[sign] = upper, lower
    return bands


def transport_generator(phi, u, sign):
    """Sparse generator L = L_x + L_y with (L c) = -div(F_sg + F_upwind) per cell.

    Interior faces only; boundary faces carry no entries, which is the
    discrete no-flux condition. Off-diagonals are nonnegative and every
    column sums to zero.
    """
    g = phi.grid
    n = g.nx * g.ny
    idx = np.arange(n).reshape(g.ny, g.nx)
    rows, cols, vals = [], [], []
    for direction, lines in (("x", idx), ("y", idx.T)):
        upper, lower = _sweep_bands(phi, u, direction)[sign]
        rows += [a.ravel() for a in (lines[:, :-1], lines, lines[:, 1:])]
        cols += [a.ravel() for a in (lines[:, 1:], lines, lines[:, :-1])]
        vals += [a.ravel() for a in (upper[:, 1:], -(upper + lower), lower[:, :-1])]
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()


def _sweep(c, upper, lower, dt):
    """Solve (I - dt L) x = c on every line at once; one line per row of c.

    The bands come from _sweep_bands. Zeros at the line ends decouple the
    lines, so the flattened lines make one tridiagonal system.
    """
    ab = np.empty((3, c.size))
    ab[0] = -dt * upper.ravel()
    ab[2] = -dt * lower.ravel()
    ab[1] = 1.0 - ab[0] - ab[2]
    # ||I - dt L||_1, the largest column sum of magnitudes (the bands off the
    # diagonal are nonpositive)
    norm_m = float((ab[1] - ab[0] - ab[2]).max())
    b = c.ravel()
    # non-finite input ends in the residual check below, a zero pivot here,
    # both as a NonConvergence
    try:
        x = solve_banded((1, 1), ab, b, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(1, np.inf, "charge transport solve") from exc
    r = ab[1] * x - b
    r[:-1] += ab[0, 1:] * x[1:]
    r[1:] += ab[2, :-1] * x[:-1]
    # a direct solve leaves a residual of about eps * (|b| + ||I - dt L|| |x|),
    # which grows with dt; the bound follows it, so no dt is too large
    res = np.linalg.norm(r)
    bound = ROUNDING * (np.linalg.norm(b) + norm_m * np.linalg.norm(x))
    if not np.isfinite(res) or res > bound:
        raise NonConvergence(1, float(res), "charge transport solve")
    # M-matrix structure makes the exact solution nonnegative; wipe the
    # rounding dust, at most ROUNDING * ||I - dt L|| * max|x| deep, so
    # downstream logs never see -1e-22.
    floor = -ROUNDING * norm_m * float(np.abs(x).max())
    if x.min() < floor:
        raise NonConvergence(1, float(x.min()), "charge positivity")
    np.maximum(x, 0.0, out=x)
    # Each line conserves its own mass exactly; the solve misses it by about
    # eps * dt * ||L||. Scale every line by sum(b_line) / sum(x_line), as
    # x + x * (ratio - 1): the ratio itself, rounded near 1, is biased low
    # (doubles below 1 are twice as dense as above), so x * ratio would let
    # the mass drift down step after step. Lines with no mass stay as they are.
    x = x.reshape(c.shape)
    line_mass = x.sum(axis=1)
    shortfall = np.divide(b.reshape(c.shape).sum(axis=1) - line_mass, line_mass,
                          out=np.zeros_like(line_mass), where=line_mass > 0.0)
    x += x * shortfall[:, None]
    return x


def step_charges(v, w, phi, u, dt):
    """One split backward-Euler transport step for both species, potential lagged.

    Each species takes an x sweep and then a y sweep. Returns the new (v, w).
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    bx, by = _sweep_bands(phi, u, "x"), _sweep_bands(phi, u, "y")
    out = []
    for c, sign in ((v, CATION_SIGN), (w, ANION_SIGN)):
        cx = _sweep(c.data, *bx[sign], dt)
        cy = _sweep(cx.T, *by[sign], dt).T
        out.append(ScalarField(v.grid, cy))
    return tuple(out)
