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
The step solves (B - U U^T) delta = R by the Sherman-Morrison-Woodbury
identity: one sparse LU of B, one three-column solve B Z = [R, U], and the
2x2 capacitance matrix C = I - U^T Z_U give

    delta = Z_R + Z_U C^{-1} U^T Z_R.

The LU of B is the only sparse factorization in the package, and at 256^2
it is most of the solve's time and memory. It keeps the minimum-degree
ordering of B + B^T, so its fill is fixed, but takes SuperLU panels of 4
columns and relaxed supernodes of at most 6 (NEWTON_LU) in place of scipy's
general-purpose 20 and 10. SuperLU's panel workspace grows as n times the
panel width, and on this five-point matrix the wider panels and larger
supernodes buy no speed: at 256^2 the smaller ones take about 18 MB off the
peak memory of `ehd2d stationary` and a quarter off each factorization.

J is strictly convex for every M, N > 0 (the log-integral terms are convex,
the Dirichlet energy strictly so), so B - U U^T is symmetric positive
definite and delta is a descent direction, slope -vol R^T delta < 0, at any
mass. A backtracking line search then gives global convergence from
phi = 0, and the full steps near the minimizer converge quadratically.
Exponentials are evaluated in shifted (log-sum-exp) form throughout, so
moderate-amplitude potentials cannot overflow.
"""

import os

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import LineSearchStall, NonConvergence
from .fluid import body_force
from .grid import ROUNDING, ScalarField, grad_to_faces, h1_seminorm, save_matrix
from .poisson import apply_dirichlet_laplacian, laplacian_matrix


def _log_int_exp(z, vol):
    """log of int e^{z} dx by midpoint quadrature, shifted against overflow."""
    m = float(z.max())
    return m + np.log(vol * float(np.exp(z - m).sum()))


def _normalized_exp(z, mass, vol):
    """mass * e^{z} / int e^{z}, evaluated stably."""
    e = np.exp(z - float(z.max()))
    return mass * e / (vol * float(e.sum()))


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
    z = phi.data.ravel()
    vol = phi.grid.vol
    return (
        0.5 * h1_seminorm(phi)
        + M * _log_int_exp(z, vol)
        + N * _log_int_exp(-z, vol)
    )


# SuperLU options for the Newton LU (see the module docstring). Only the
# supernode partition changes; the ordering, and so the fill, stay those of
# MMD_AT_PLUS_A. One factorization of B at phi = 0 for the relax-small-mass
# masses (2-vCPU Xeon, OPENBLAS_NUM_THREADS=1; min of 3, process peak RSS):
#
#   grid    scipy default (20, 10)    (4, 6)             L + U nnz
#   128^2    43 ms,  82.6 MB           32 ms,  77.8 MB      664 094
#   256^2   290 ms, 136.7 MB          218 ms, 118.6 MB    3 407 022
#   512^2   1.50 s,  378 MB            1.17 s,  307 MB   16 849 798
#
# (2, 4) saves 2 MB more at 256^2 but factors slower there; (8, 10) saves
# only 12 MB.
NEWTON_LU = {"panel_size": 4, "relax": 6}


def _newton_direction(A, v, w, R, M, N, vol):
    """Exact Newton direction: solves (B - U U^T) delta = R by Woodbury.

    B = diag(v + w) - A with A the Dirichlet Lap_h, U = [sqrt(vol/M) v,
    sqrt(vol/N) w]. The LU of B lives only in this call, so it is freed
    before the next iteration makes its own.
    """
    U = np.column_stack((np.sqrt(vol / M) * v, np.sqrt(vol / N) * w))
    B = (sp.diags(v + w) - A).tocsc()
    Z = splu(B, permc_spec="MMD_AT_PLUS_A", **NEWTON_LU).solve(np.column_stack((R, U)))
    Z_R, Z_U = Z[:, 0], Z[:, 1:]
    C = np.eye(2) - U.T @ Z_U
    return Z_R + Z_U @ np.linalg.solve(C, U.T @ Z_R)


def solve_pb(M, N, grid, max_iter=50, phi0=None):
    """Damped Newton solve of the discrete Poisson-Boltzmann problem.

    Terminates when the grid-L2 norm of R(phi) drops to the rounding that
    evaluating R leaves, grid.ROUNDING ((||Lap_h|| + max(v + w)) |phi| + |v|
    + |w|), where ||Lap_h|| + max(v + w) bounds the norm of the Newton matrix
    B. The stop scales with the data, so it holds at any mass and on any
    grid. phi0 overrides the zero initial guess (used by the uniqueness
    checks).
    """
    if M <= 0.0 or N <= 0.0:
        raise ValueError("masses must be positive")
    A = laplacian_matrix(grid, "dirichlet")
    vol = grid.vol
    n = grid.nx * grid.ny
    phi = np.zeros(n) if phi0 is None else phi0.data.ravel().copy()

    def J_of(vec):
        return functional_J(ScalarField(grid, vec.reshape(grid.ny, grid.nx)), M, N)

    def norm(vec):
        return float(np.sqrt(vol * (vec @ vec)))

    history = []
    for k in range(max_iter + 1):
        dens_v = _normalized_exp(phi, M, vol)
        dens_w = _normalized_exp(-phi, N, vol)
        R = A @ phi - dens_v + dens_w
        res = norm(R)
        norm_b = grid.lap_norm + float((dens_v + dens_w).max())
        if res <= ROUNDING * (norm_b * norm(phi) + norm(dens_v) + norm(dens_w)):
            history.append((res, 0.0, 0))
            break
        if k == max_iter:
            raise NonConvergence(k, res, "Poisson-Boltzmann Newton")
        delta = _newton_direction(A, dens_v, dens_w, R, M, N, vol)
        slope = -vol * float(R @ delta)
        if not (np.isfinite(delta).all() and slope < 0.0):
            what = f"Poisson-Boltzmann Newton (no descent direction at iteration {k + 1})"
            raise NonConvergence(k, res, what)
        J0 = J_of(phi)
        # Near the minimum the decrease per step falls below the rounding
        # error of J, which is that of its largest terms: with M and N large
        # and close, the log-integral terms dwarf J itself. The
        # sufficient-decrease test allows that much.
        logs = M * abs(_log_int_exp(phi, vol)) + N * abs(_log_int_exp(-phi, vol))
        fuzz = ROUNDING * (1.0 + abs(J0) + logs)
        alpha = 1.0
        halvings = 0
        while J_of(phi + alpha * delta) > J0 + 1e-4 * alpha * slope + fuzz:
            alpha *= 0.5
            halvings += 1
            if alpha < 1e-12:
                raise LineSearchStall(J0, alpha)
        history.append((res, alpha, halvings))
        phi = phi + alpha * delta

    shape = (grid.ny, grid.nx)
    return StationarySolution(
        ScalarField(grid, phi.reshape(shape)),
        ScalarField(grid, dens_v.reshape(shape)),
        ScalarField(grid, dens_w.reshape(shape)),
        float(M),
        float(N),
        res,
        k,
        history,
    )


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
    log_ip = _log_int_exp(phi, vol)
    log_im = _log_int_exp(-phi, vol)
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
