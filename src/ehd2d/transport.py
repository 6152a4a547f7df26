"""Nernst-Planck charge transport with Scharfetter-Gummel exponential fitting.

Each species obeys c_t + div F = 0 with flux

    F = -(grad c - s c grad phi) + u c,      s = -1 cation, s = +1 anion,

zero total flux through the walls, and advection by the face velocity u. The
diffusion/drift part of the face flux uses the Scharfetter-Gummel weights

    F_sg = (1/h) [ B(s dpsi) cL - B(-s dpsi) cR ],   B(x) = x/(e^x - 1),

which vanish identically on the discrete Boltzmann profile (c proportional
to e^{phi} for s = -1, e^{-phi} for s = +1), so the scheme's steady states
are the exact discrete Maxwellians rather than second-order approximations
of them. Advection uses first-order upwinding.

The step is backward Euler on the whole flux divergence: both the SG part
and the upwind part are assembled into one sparse generator L with the
potential and velocity frozen at the step's start. I - dt*L is then an
M-matrix with unit column sums, which buys the two properties the package
checks hardest:

* positivity for every dt (the inverse of an M-matrix is nonnegative), and
* exact mass conservation (column sums of L are zero, so 1^T c is invariant
  under the solve, not just up to truncation error).
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import NonConvergence
from .grid import ScalarField

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


def sg_face_flux(cL, cR, dpsi, h, sign):
    """Scharfetter-Gummel flux across one face, dpsi = phi_R - phi_L.

    Reduces to the central diffusive flux (cL - cR)/h when dpsi = 0 and to
    pure upwind drift in the large-|dpsi| limit.
    """
    return (bernoulli(sign * dpsi) * cL - bernoulli(-sign * dpsi) * cR) / h


def transport_generator(phi, u, sign):
    """Sparse generator L with (L c) = -div(F_sg + F_upwind) per cell.

    Interior faces only; boundary faces carry no entries, which is the
    discrete no-flux condition. Off-diagonals are nonnegative and every
    column sums to zero.
    """
    g = phi.grid
    nx, ny, hx, hy = g.nx, g.ny, g.hx, g.hy
    n = nx * ny
    ph = phi.data
    idx = np.arange(n).reshape(ny, nx)

    rows = []
    cols = []
    vals = []

    def add_faces(kL, kR, dpsi, uf, h):
        # a multiplies cL, b multiplies cR in F = a cL - b cR
        a = bernoulli(sign * dpsi) / h + np.maximum(uf, 0.0)
        b = bernoulli(-sign * dpsi) / h + np.maximum(-uf, 0.0)
        rows.append(kL)
        cols.append(kL)
        vals.append(-a / h)
        rows.append(kL)
        cols.append(kR)
        vals.append(b / h)
        rows.append(kR)
        cols.append(kL)
        vals.append(a / h)
        rows.append(kR)
        cols.append(kR)
        vals.append(-b / h)

    # vertical faces between (j, i-1) and (j, i)
    kL = idx[:, :-1].ravel()
    kR = idx[:, 1:].ravel()
    dpsi = (ph[:, 1:] - ph[:, :-1]).ravel()
    uf = u.ux[:, 1:-1].ravel()
    add_faces(kL, kR, dpsi, uf, hx)

    # horizontal faces between (j-1, i) and (j, i)
    kS = idx[:-1, :].ravel()
    kN = idx[1:, :].ravel()
    dpsi = (ph[1:, :] - ph[:-1, :]).ravel()
    uf = u.uy[1:-1, :].ravel()
    add_faces(kS, kN, dpsi, uf, hy)

    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()


def _implicit_solve(c, L, dt):
    n = c.size
    M = (sp.identity(n, format="csr") - dt * L).tocsc()
    lu = splu(M, permc_spec="MMD_AT_PLUS_A")
    b = c.ravel()
    x = lu.solve(b)
    res = np.linalg.norm(M @ x - b)
    if not np.isfinite(res) or res > 1e-8 * (1.0 + np.linalg.norm(b)):
        raise NonConvergence(1, float(res), "charge transport solve")
    # M-matrix structure makes the exact solution nonnegative; wipe the
    # factorization dust so downstream logs never see -1e-22.
    floor = -1e-12 * (1.0 + float(np.abs(x).max()))
    if x.min() < floor:
        raise NonConvergence(1, float(x.min()), "charge positivity")
    np.maximum(x, 0.0, out=x)
    return x.reshape(c.shape)


def step_charges(v, w, phi, u, dt):
    """One backward-Euler transport step for both species, potential lagged.

    Returns the new (v, w).
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    g = v.grid
    Lv = transport_generator(phi, u, CATION_SIGN)
    Lw = transport_generator(phi, u, ANION_SIGN)
    v_new = _implicit_solve(v.data, Lv, dt)
    w_new = _implicit_solve(w.data, Lw, dt)
    return ScalarField(g, v_new), ScalarField(g, w_new)
