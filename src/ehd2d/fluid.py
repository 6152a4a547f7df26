"""Incompressible velocity update: advect, diffuse implicitly, project.

The velocity lives on the MAC faces with no-slip walls, meaning boundary
faces are held at zero and the tangential wall condition enters the viscous
operator through mirror ghosts (ghost = -interior). One step runs the
classical non-incremental projection:

    u*   = u - dt (u . grad) u + dt f          explicit, first-order upwind
    u**  : (I - dt Lap) u** = u*               implicit per component
    q    : Lap_N q = div u**                   Neumann Poisson solve
    u+   = u** - grad q,   p = q (zero mean)

The implicit viscous step is solved by poisson.transform_solve with shift
1/dt. ux lives on the (ny, nx-1) interior vertical faces: along x its
neighbors are the boundary faces, held at zero ("value"), and along y the
walls are half a cell away, where the mirror ghost realizes the zero
tangential velocity ("dirichlet"); uy is the transpose arrangement. No
matrix is assembled or factored.

Gradients of cell scalars have zero boundary faces, so the correction never
touches the walls and the projected field is discretely divergence free up
to rounding: step_velocity holds max|div u+| to the rounding the projection
leaves, which projection_bound computes from u+ and q alone (u** = u+ +
grad q) for a stored state too. The stored pressure is the projection
potential (the dt factor is absorbed), zero mean by construction.

The electric body force is assembled pointwise on faces as (v - w) grad phi,
with the charge imbalance averaged from the neighboring cells; this is the
form whose pairing with the velocity telescopes against the potential-energy
bookkeeping in the diagnostics module.
"""

import numpy as np
# benchmark/spans.py wraps fluid.splu to count viscous LUs; the step makes none.
from scipy.sparse.linalg import splu  # noqa: F401

from .errors import NonConvergence, ZeroField
from .grid import (ROUNDING, MacVectorField, div_from_faces, grad_norm_sq, grad_to_faces,
                   lp_norm)
from .poisson import solve_neumann, transform_solve


def body_force(v, w, phi):
    """Face field (v - w)_face * (grad phi)_face, zero on boundary faces."""
    g = phi.grid
    rho = v.data - w.data
    ph = phi.data
    fx = np.zeros((g.ny, g.nx + 1))
    fy = np.zeros((g.ny + 1, g.nx))
    fx[:, 1:-1] = 0.5 * (rho[:, :-1] + rho[:, 1:]) * (ph[:, 1:] - ph[:, :-1]) / g.hx
    fy[1:-1, :] = 0.5 * (rho[:-1, :] + rho[1:, :]) * (ph[1:, :] - ph[:-1, :]) / g.hy
    return MacVectorField(g, fx, fy)


# ---------------------------------------------------------------------------
# upwind self-advection
# ---------------------------------------------------------------------------

def _advect(u):
    """First-order upwind (u . grad) u on interior faces; tuple (adv_x, adv_y)."""
    g = u.grid
    hx, hy = g.hx, g.hy
    ux, uy = u.ux, u.uy

    # x-momentum on interior vertical faces (ny, nx-1)
    a = ux[:, 1:-1]
    ddx_b = (ux[:, 1:-1] - ux[:, :-2]) / hx
    ddx_f = (ux[:, 2:] - ux[:, 1:-1]) / hx
    ux_pad = np.vstack([-ux[:1, :], ux, -ux[-1:, :]])
    ddy_b = (ux_pad[1:-1, 1:-1] - ux_pad[:-2, 1:-1]) / hy
    ddy_f = (ux_pad[2:, 1:-1] - ux_pad[1:-1, 1:-1]) / hy
    vbar = 0.25 * (uy[:-1, :-1] + uy[:-1, 1:] + uy[1:, :-1] + uy[1:, 1:])
    adv_x = (
        np.maximum(a, 0.0) * ddx_b
        + np.minimum(a, 0.0) * ddx_f
        + np.maximum(vbar, 0.0) * ddy_b
        + np.minimum(vbar, 0.0) * ddy_f
    )

    # y-momentum on interior horizontal faces (ny-1, nx)
    b = uy[1:-1, :]
    ddy_b = (uy[1:-1, :] - uy[:-2, :]) / hy
    ddy_f = (uy[2:, :] - uy[1:-1, :]) / hy
    uy_pad = np.hstack([-uy[:, :1], uy, -uy[:, -1:]])
    ddx_b = (uy_pad[1:-1, 1:-1] - uy_pad[1:-1, :-2]) / hx
    ddx_f = (uy_pad[1:-1, 2:] - uy_pad[1:-1, 1:-1]) / hx
    ubar = 0.25 * (ux[:-1, :-1] + ux[:-1, 1:] + ux[1:, :-1] + ux[1:, 1:])
    adv_y = (
        np.maximum(b, 0.0) * ddy_b
        + np.minimum(b, 0.0) * ddy_f
        + np.maximum(ubar, 0.0) * ddx_b
        + np.minimum(ubar, 0.0) * ddx_f
    )
    return adv_x, adv_y


@np.errstate(over="ignore", invalid="ignore")  # a velocity past the double range fails its checks
def step_velocity(u, f, dt):
    """One projection step of the velocity u under the face force f.

    Returns (u_new, p) with p the zero-mean projection pressure.

    The force enters after the viscous solve so that a force which is a
    discrete gradient is removed exactly by the projection; diffusing it
    first would bend it away from gradient form near the walls.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    g = u.grid
    adv_x, adv_y = _advect(u)

    star_x = u.ux[:, 1:-1] - dt * adv_x
    star_y = u.uy[1:-1, :] - dt * adv_y

    # (I - dt Lap) u** = u*, as (Lap - 1/dt) u** = -u*/dt
    visc_x = transform_solve(-star_x / dt, ("dirichlet", "value"), (g.hy, g.hx), 1.0 / dt)
    visc_y = transform_solve(-star_y / dt, ("value", "dirichlet"), (g.hy, g.hx), 1.0 / dt)

    u2 = MacVectorField.zeros(g)
    u2.ux[:, 1:-1] = visc_x + dt * f.ux[:, 1:-1]
    u2.uy[1:-1, :] = visc_y + dt * f.uy[1:-1, :]

    div2 = div_from_faces(u2)
    q = solve_neumann(div2)
    gq = grad_to_faces(q)
    u_new = MacVectorField(g, u2.ux - gq.ux, u2.uy - gq.uy)

    worst = lp_norm(div_from_faces(u_new), np.inf)
    if worst > _projection_rounding(div2, q, u2):
        raise NonConvergence(1, worst, "projection (residual divergence)")
    return u_new, q


def projection_bound(u, q):
    """Largest max|div u| that rounding leaves in u, projected by the potential q."""
    gq = grad_to_faces(q)
    u2 = MacVectorField(u.grid, u.ux + gq.ux, u.uy + gq.uy)
    return _projection_rounding(div_from_faces(u2), q, u2)


def _projection_rounding(div2, q, u2):
    """ROUNDING (max|div u**| + ||Lap_h|| max|q| + ||div|| max|u**|), ||div|| <= 2/hx + 2/hy."""
    g = q.grid
    return ROUNDING * (lp_norm(div2, np.inf) + g.lap_norm * lp_norm(q, np.inf)
                       + (2.0 / g.hx + 2.0 / g.hy) * u2.max_speed())


def ladyzhenskaya_ratio(u, grad_sq=None):
    """||u||_L4 / (||u||_L2^(1/2) ||grad u||_L2^(1/2)) for a no-slip field.

    The L2 and L4 norms are taken on the cell-centered speed interpolant so
    numerator and denominator sample the field the same way; the gradient
    norm is the wall-aware face-difference form (grad_norm_sq). Invariant
    under u -> alpha*u, so every norm is taken of 2^k u, k the even integer
    that puts max|2^k u| in [1/2, 2): the scaling is exact, so the ratio keeps
    u's own bits where u's norms are in range and no norm leaves it at any
    nonzero finite |u|. A caller that has grad_norm_sq(u) passes it as
    grad_sq, scaled by 4^k unless it under- or overflowed.
    """
    if u.is_zero():
        raise ZeroField("Ladyzhenskaya ratio of a zero velocity field")
    g = u.grid
    k = -2 * (np.frexp(u.max_speed())[1] // 2)
    ux, uy = np.ldexp(u.ux, k), np.ldexp(u.uy, k)
    uxc = 0.5 * (ux[:, :-1] + ux[:, 1:])
    uyc = 0.5 * (uy[:-1, :] + uy[1:, :])
    speed2 = uxc * uxc + uyc * uyc
    l2_sq = g.vol * float(speed2.sum())
    l4_4 = g.vol * float((speed2 * speed2).sum())
    if grad_sq is not None and np.finfo(float).tiny <= grad_sq < np.inf:
        grad_sq = np.ldexp(grad_sq, 2 * k)
    else:
        grad_sq = grad_norm_sq(MacVectorField(g, ux, uy))
    return float(l4_4 ** 0.25 / (np.sqrt(np.sqrt(l2_sq)) * grad_sq ** 0.25))
