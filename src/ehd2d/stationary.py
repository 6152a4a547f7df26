"""Stationary state: damped Newton minimization of the convex potential functional.

The equilibrium potential is the unique minimizer over the discrete
zero-boundary space of

    J[phi] = 1/2 ||grad phi||^2 + M log int e^{phi} + N log int e^{-phi},

whose Euler-Lagrange residual on the grid is

    R(phi) = Lap_h phi - M e^{phi}/int e^{phi} + N e^{-phi}/int e^{-phi},

so that grad J = -vol R. The Maxwellian densities

    v_inf = M e^{phi}/int e^{phi},    w_inf = N e^{-phi}/int e^{-phi}

carry their masses exactly by construction.

Newton directions use the exact Hessian. With B = diag(v + w) - Lap_h and
U = [sqrt(vol/M) v, sqrt(vol/N) w] (two columns),

    vol^{-1} Hess J = B - U U^T,

the sparse matrix B plus the rank-two term from the normalizing integrals.

The mirrors x -> lx - x and y -> ly - y permute the cells and keep the
Dirichlet closure, so they leave J unchanged; J being strictly convex, its
unique minimizer is even about both mid-lines. At an even phi, v, w and R
are even and the Hessian commutes with both mirrors, so the Newton
direction is even too, and from phi = 0 every iterate stays even. The
direction is therefore solved on the lower-left ceil(ny/2) x ceil(nx/2)
quarter of the cells. Let P extend a quarter array to the grid by mirroring
(cell i of an axis of n cells takes quarter cell min(i, n - 1 - i)) and S
restrict to the quarter. Then delta = P delta_q, where

    S (B - U U^T) P delta_q = S R,  that is  (B_q - U_q V^T) delta_q = R_q,

with B_q = diag(v_q + w_q) - A_q, the folded Laplacian A_q = S Lap_h P (on
an even axis the mid-line closes with ghost = interior; on an odd one the
middle cell couples with weight 2 to its neighbour), U_q = S U and
V = P^T U = mult U_q, where mult counts the cells each quarter cell stands
for (4, 2 or 1). The Sherman-Morrison-Woodbury identity solves it with one
sparse LU of B_q, one three-column solve B_q Z = [R_q, U_q] and the 2x2
capacitance matrix C = I - V^T Z_U:

    delta_q = Z_R + Z_U C^{-1} V^T Z_R.

R_q is the mean of R over each cell's orbit under the mirrors, so the
rounding by which the computed R misses being even does not enter delta,
and mirroring delta_q back keeps phi exactly even. The residual, the stop
and the line search use every cell, so convergence is certified on the
full grid, which no matrix is assembled for: R takes the five-point
stencil.

The LU of B_q is the only sparse factorization in the package. At 256^2
its fill is a fifth of the full-grid LU's, and it still takes about 70 %
of the solve's time (50 of 70 ms, median of 15 solves, 2-vCPU Xeon). It
keeps the minimum-degree ordering of B_q + B_q^T, so its fill is fixed,
but takes SuperLU panels of 4 columns and relaxed supernodes of at most
6 (NEWTON_LU) in place of scipy's general-purpose 20 and 10. SuperLU's
panel workspace grows as n times the panel width, and on this five-point
matrix the wider panels and larger supernodes buy no speed.

J is strictly convex for every M, N > 0 (the log-integral terms are convex,
the Dirichlet energy strictly so), so B - U U^T is symmetric positive
definite and delta is a descent direction, slope -vol R^T delta < 0, at any
mass. A backtracking line search then gives global convergence from
phi = 0, and the full steps near the minimizer converge quadratically.
Exponentials are evaluated in shifted (log-sum-exp) form throughout, so
moderate-amplitude potentials cannot overflow.

Each iterate is evaluated once (_maxwellians): one pair of shifted
exponentials e^{+-phi - max} gives its two Maxwellians and its two
log-integrals, and with its Dirichlet term, J. The line search evaluates
each trial so, and the accepted trial becomes the next iterate with its
Maxwellians, log-integrals and J at hand, so a solve evaluates the pair
1 + sum(1 + halvings) times. J at phi = 0 is taken only after the first
direction, so nothing but the exponentials precedes the first LU.
"""

import os

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import LineSearchStall, NonConvergence
from .fluid import body_force
from .grid import ROUNDING, ScalarField, grad_to_faces, h1_seminorm, save_matrix
from .poisson import _lap1d, _stencil, apply_dirichlet_laplacian


def _shifted_exp(z, vol):
    """(e, s, log int e^{z} dx) with e = e^{z - max z} and s its sum, by
    midpoint quadrature; the shift keeps e from overflowing."""
    m = float(z.max())
    e = np.exp(z - m)
    total = float(e.sum())
    return e, total, m + np.log(vol * total)


def _maxwellians(z, M, N, vol):
    """(v, w, log int e^{z}, log int e^{-z}) from one pair of shifted
    exponentials, with v = M e^{z} / int e^{z} and w = N e^{-z} / int e^{-z}.

    v and w are scaled in place, by the same two roundings as
    M * e / (vol * s).
    """
    v, s_v, log_v = _shifted_exp(z, vol)
    w, s_w, log_w = _shifted_exp(-z, vol)
    v *= M
    v /= vol * s_v
    w *= N
    w /= vol * s_w
    return v, w, log_v, log_w


def _functional(phi, M, N, log_v, log_w):
    """J at the ScalarField phi, given its two log-integrals."""
    return 0.5 * h1_seminorm(phi) + M * log_v + N * log_w


class StationarySolution:
    """Equilibrium bundle: potential, Maxwellians, masses, solver record.

    history holds one (residual, step, halvings) triple per Newton iterate:
    the residual there, the line-search step length taken from it and the
    number of halvings that step needed. The last entry is the returned
    iterate, from which no step is taken (step 0.0).
    """

    __slots__ = ("phi", "v", "w", "M", "N", "residual", "iterations", "history")

    def __init__(self, phi, v, w, M, N, residual, iterations, history=()):
        self.phi = phi
        self.v = v
        self.w = w
        self.M = M
        self.N = N
        self.residual = residual
        self.iterations = iterations
        self.history = list(history)

    @property
    def grid(self):
        return self.phi.grid


def functional_J(phi, M, N):
    """The convex functional; gradient term uses the Dirichlet ghost closure."""
    if M <= 0.0 or N <= 0.0:
        raise ValueError("masses must be positive")
    _, _, log_v, log_w = _maxwellians(phi.data, M, N, phi.grid.vol)
    return _functional(phi, M, N, log_v, log_w)


# SuperLU options for the Newton LU (see the module docstring). Only the
# supernode partition changes; the ordering, and so the fill, stay those of
# MMD_AT_PLUS_A. One factorization of the folded B at phi = 0 for the
# relax-small-mass masses (2-vCPU Xeon, OPENBLAS_NUM_THREADS=1; min of 3,
# process peak RSS):
#
#   grid    scipy default (20, 10)    (4, 6)             L + U nnz
#   128^2     6 ms,  70.5 MB            5 ms,  69.0 MB      126 532
#   256^2    34 ms,  82.5 MB           26 ms,  77.7 MB      664 094
#   512^2   193 ms, 137.0 MB          151 ms, 117.9 MB    3 407 022
#
# (2, 4) saves 2 MB more at 512^2 but is no faster; (8, 10) saves only
# 12 MB there.
NEWTON_LU = {"panel_size": 4, "relax": 6}


def _mirror(n):
    """Quarter index of each cell on an axis of n cells: i -> min(i, n - 1 - i)."""
    i = np.arange(n)
    return np.minimum(i, n - 1 - i)


def _folded_laplacian(grid):
    """Dirichlet Lap_h on fields even about both mid-lines, acting on the
    lower-left quarter of cells (C order, j major).

    Per axis it is the 1-D operator times the mirror extension P (cell i of
    the full axis takes quarter cell min(i, n - 1 - i)), restricted to the
    quarter's rows; the 2-D operator is their Kronecker sum, as in
    poisson.laplacian_matrix.
    """
    def folded(n, h):
        m = _mirror(n)
        P = sp.csr_matrix((np.ones(n), (np.arange(n), m)))
        return (_lap1d(n, h, "dirichlet") @ P)[: P.shape[1]]

    return sp.kronsum(folded(grid.nx, grid.hx), folded(grid.ny, grid.hy), format="csr")


def _fold(x):
    """Mean of a cell array over its orbit under both mirrors, on the lower-left quarter."""
    x = (0.5 * x + 0.5 * x[::-1])[: (x.shape[0] + 1) // 2]
    return (0.5 * x + 0.5 * x[:, ::-1])[:, : (x.shape[1] + 1) // 2]


def _unfold(xq, shape):
    """The cell array of the given shape that is even about both mid-lines
    and equals xq on the lower-left quarter."""
    return xq.reshape((shape[0] + 1) // 2, (shape[1] + 1) // 2)[np.ix_(*map(_mirror, shape))]


def _multiplicity(shape):
    """Number of full-grid cells each lower-left quarter cell stands for: 4, 2 or 1."""
    return np.outer(*(np.bincount(_mirror(n)) for n in shape)).ravel()


def _newton_direction(Aq, mult, v, w, R, M, N, vol):
    """Exact Newton direction on the quarter: solves (B_q - U V^T) delta = R
    by Woodbury.

    v, w and R are quarter cell vectors, B_q = diag(v + w) - Aq with Aq the
    folded Lap_h, U = [sqrt(vol/M) v, sqrt(vol/N) w] and V = mult U. The LU
    of B_q lives only in this call, so it is freed before the next iteration
    makes its own.
    """
    U = np.column_stack((np.sqrt(vol / M) * v, np.sqrt(vol / N) * w))
    V = mult[:, None] * U
    B = (sp.diags(v + w) - Aq).tocsc()
    Z = splu(B, permc_spec="MMD_AT_PLUS_A", **NEWTON_LU).solve(np.column_stack((R, U)))
    Z_R, Z_U = Z[:, 0], Z[:, 1:]
    C = np.eye(2) - V.T @ Z_U
    try:
        return Z_R + Z_U @ np.linalg.solve(C, V.T @ Z_R)
    except np.linalg.LinAlgError:  # C singular from overflow: solve_pb reports no direction
        return np.full_like(R, np.nan)


def solve_pb(M, N, grid, max_iter=50):
    """Damped Newton solve of the discrete Poisson-Boltzmann problem from phi = 0.

    Terminates when the grid-L2 norm of R(phi) drops to the rounding that
    evaluating R leaves, grid.ROUNDING ((||Lap_h|| + max(v + w)) |phi| + |v|
    + |w|), where ||Lap_h|| + max(v + w) bounds the norm of the Newton matrix
    B. The stop scales with the data, so it holds at any mass and on any
    grid. Each direction is solved on the lower-left quarter and mirrored,
    so every iterate is exactly even about both mid-lines; the residual, the
    stop and the line search see every cell.
    """
    if M <= 0.0 or N <= 0.0:
        raise ValueError("masses must be positive")
    shape = (grid.ny, grid.nx)
    Aq = _folded_laplacian(grid)
    mult = _multiplicity(shape)
    vol = grid.vol
    phi = np.zeros(shape)
    dens_v, dens_w, log_v, log_w = _maxwellians(phi, M, N, vol)
    J0 = None  # J at phi; after the first step, the line search's value

    def evaluate(arr):
        """J at a line-search trial, and its Maxwellians and log-integrals."""
        field = ScalarField(grid, arr)
        maxwellians = _maxwellians(arr, M, N, vol)
        return _functional(field, M, N, *maxwellians[2:]), maxwellians

    def norm(arr):
        return float(np.sqrt(vol * np.vdot(arr, arr)))

    history = []
    for k in range(max_iter + 1):
        R = _stencil(phi, grid, "dirichlet") - dens_v + dens_w
        res = norm(R)
        norm_b = grid.lap_norm + float((dens_v + dens_w).max())
        if res <= ROUNDING * (norm_b * norm(phi) + norm(dens_v) + norm(dens_w)):
            history.append((res, 0.0, 0))
            break
        if k == max_iter:
            raise NonConvergence(k, res, "Poisson-Boltzmann Newton")
        quarter = (_fold(a).ravel() for a in (dens_v, dens_w, R))
        delta = _unfold(_newton_direction(Aq, mult, *quarter, M, N, vol), shape)
        slope = -vol * float(np.vdot(R, delta))
        if not (np.isfinite(delta).all() and slope < 0.0):
            what = f"Poisson-Boltzmann Newton (no descent direction at iteration {k + 1})"
            raise NonConvergence(k, res, what)
        if J0 is None:
            J0 = _functional(ScalarField(grid, phi), M, N, log_v, log_w)
        # Near the minimum the decrease per step falls below the rounding
        # error of J, which is that of its largest terms: with M and N large
        # and close, the log-integral terms dwarf J itself. The
        # sufficient-decrease test allows that much.
        logs = M * abs(log_v) + N * abs(log_w)
        fuzz = ROUNDING * (1.0 + abs(J0) + logs)
        alpha = 1.0
        halvings = 0
        trial = phi + alpha * delta
        J1, maxwellians = evaluate(trial)
        while J1 > J0 + 1e-4 * alpha * slope + fuzz:
            alpha *= 0.5
            halvings += 1
            if alpha < 1e-12:
                raise LineSearchStall(J0, alpha)
            trial = phi + alpha * delta
            J1, maxwellians = evaluate(trial)
        history.append((res, alpha, halvings))
        phi, J0 = trial, J1
        dens_v, dens_w, log_v, log_w = maxwellians

    fields = (ScalarField(grid, a) for a in (phi, dens_v, dens_w))
    return StationarySolution(*fields, float(M), float(N), res, k, history)


def sinh_form_check(s):
    """Residual of the equivalent sinh formulation of the stationary equation.

    The two normalized exponentials combine into a single shifted sinh,

        a e^{phi} - b e^{-phi} = 2 sqrt(ab) sinh(phi - (1/2) log(b/a)),

    with a = M/int e^{phi}, b = N/int e^{-phi}; the returned grid-L2 norm of
    Lap_h phi - 2 alpha sinh(phi - beta) is algebraically the same quantity
    as the Newton residual, so it vanishes to rounding at any converged
    solution.
    """
    phi = s.phi.data
    vol = s.grid.vol
    _, _, log_ip, log_im = _maxwellians(phi, s.M, s.N, vol)
    alpha2 = 2.0 * np.exp(0.5 * (np.log(s.M) + np.log(s.N) - log_ip - log_im))
    beta = 0.5 * (np.log(s.N) + log_ip - np.log(s.M) - log_im)
    r = apply_dirichlet_laplacian(s.phi).data - alpha2 * np.sinh(phi - beta)
    return float(np.sqrt(vol * (r * r).sum()))


def stationary_pressure_check(s):
    """Interior-face norm of (v - w) grad phi - grad (v + w): the fluid's body
    force less the pressure gradient of p = v + w.

    At the stationary state the electric force is exactly a pressure
    gradient with p = v + w; on the grid the identity holds to O(h^2), which
    the refinement tests measure.
    """
    f = body_force(s.v, s.w, s.phi)
    p = grad_to_faces(ScalarField(s.grid, s.v.data + s.w.data))
    rx = f.ux[:, 1:-1] - p.ux[:, 1:-1]
    ry = f.uy[1:-1, :] - p.uy[1:-1, :]
    return float(np.sqrt(s.grid.vol * (float((rx * rx).sum()) + float((ry * ry).sum()))))


def export_stationary(s, outdir):
    """Write the solution matrices plus a small metadata file; returns the paths."""
    os.makedirs(outdir, exist_ok=True)
    paths = {}
    for name, field in (("phi_inf", s.phi), ("v_inf", s.v), ("w_inf", s.w)):
        path = os.path.join(outdir, f"{name}.txt")
        save_matrix(path, field.data)
        paths[name] = path
    meta = os.path.join(outdir, "metadata.txt")
    g = s.grid
    with open(meta, "w") as fh:
        fh.write(f"M = {s.M:.17g}\n")
        fh.write(f"N = {s.N:.17g}\n")
        fh.write(f"residual = {s.residual:.17g}\n")
        fh.write(f"iterations = {s.iterations}\n")
        fh.write(f"nx = {g.nx}\nny = {g.ny}\nlx = {g.lx:.17g}\nly = {g.ly:.17g}\n")
    paths["metadata"] = meta
    return paths
