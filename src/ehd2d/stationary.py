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
Dirichlet closure, so they leave J unchanged; on a square grid (nx == ny
and hx == hy) so does the diagonal reflection x <-> y, and the mirrors and
the reflection generate all eight symmetries of the square. J being
strictly convex, its unique minimizer is constant on each orbit of the
cells under these symmetries. At such a phi, v, w and R are too and the
Hessian commutes with every symmetry, so the Newton direction is constant
on the orbits as well, and from phi = 0 every iterate stays so. The
direction is therefore solved on one cell of each orbit, the fundamental
cells (_Orbits): the lower-left ceil(ny/2) x ceil(nx/2) quarter, or on a
square grid the eighth of it with j <= i, q (q + 1)/2 cells for
q = ceil(n/2). A rectangular grid keeps the quarter; there is one fold,
whose diagonal reflection is the identity off square grids. Let P extend
a fundamental array to the grid (cell i of an axis of n cells takes
quarter cell min(i, n - 1 - i), and quarter cell (j, i) takes fundamental
cell (min(j, i), max(j, i)) on a square grid) and S restrict to the
fundamental cells. Then delta = P delta_f, where

    S (B - U U^T) P delta_f = S R,  that is  (B_f - U_f V^T) delta_f = R_f,

with B_f = diag(v_f + w_f) - A_f, the folded Laplacian A_f = S Lap_h P
(on an even axis the mid-line closes with ghost = interior; on an odd one
the middle cell couples with weight 2 to its neighbour; on the eighth the
cells next to the diagonal couple with weight 2 to the diagonal cells),
U_f = S U and V = P^T U = mult U_f, where mult counts the cells each
fundamental cell stands for (up to 8). The Sherman-Morrison-Woodbury
identity solves it with one sparse LU of B_f, one four-column solve
B_f Z = [R_f, U_f, g] (g = -A_f 1, the wall terms) and the 2x2
capacitance matrix C = I - V^T Z_U:

    delta_f = Z_R + Z_U C^{-1} V^T Z_R.

With g, C's diagonal and determinant are sums of nonnegative terms at any
masses, so det C > 0 and C^{-1} is its adjugate over det C
(_newton_direction). R_f is the mean of R over each orbit, so the
rounding by which the computed R misses the symmetries does not enter
delta, and unfolding delta_f keeps phi exactly even and, on a square
grid, equal to its transpose bit for bit. The residual, the stop and the
line search use every cell, so convergence is certified on the full
grid, which no matrix is assembled for: R takes the five-point stencil.

B_f is assembled once per solve, straight into the CSC arrays that
SuperLU reads (_newton_matrix): five bands from the two folded 1-D
operators, doubled or dropped next to the diagonal on the eighth, with
the slot of each diagonal entry recorded. Each iteration only writes
(v_f + w_f) - diag(A_f) into those slots; no sparse algebra runs per
iteration. The arrays equal, bit for bit, those scipy forms from
diag(v_f + w_f) - S Lap_h P, so the LU and every iterate are unchanged by
assembling them directly.

The LU of B_f is the only sparse factorization in the package. On the
256^2 eighth its fill is 254 792 nonzeros in L + U, against 664 094 on
the quarter and 3.4 M on the full grid, and it takes about two thirds of
the solve's time (15 of 23 ms, median of 15 solves, 2-vCPU Xeon, one BLAS
thread). It keeps the minimum-degree ordering of B_f + B_f^T, so its
fill is fixed, but takes SuperLU panels of 4 columns and relaxed
supernodes of at most 6 (NEWTON_LU) in place of scipy's general-purpose
20 and 10, which are slower on this five-point matrix.

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
from .grid import ROUNDING, ScalarField, h1_seminorm, save_matrix
from .poisson import _grid_l2, _stencil, apply_dirichlet_laplacian


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


# SuperLU options for the Newton LU (see the module docstring). Only the
# supernode partition changes; the ordering, and so the fill, stay those of
# MMD_AT_PLUS_A. One factorization of the Newton matrix on the eighth of a
# square grid at phi = 0 for relax-small-mass (M, N = 0.05, 0.1 over 4 x 4;
# 2-vCPU Xeon, OPENBLAS_NUM_THREADS=1; min of 5 in one process, process
# peak RSS):
#
#   grid    scipy default (20, 10)    (4, 6)             L + U nnz
#   128^2    2.4 ms,  68.0 MB          1.8 ms,  67.6 MB      49 050
#   256^2   10.2 ms,  73.4 MB          8.2 ms,  73.6 MB     254 792
#   512^2   61.3 ms,  98.2 MB         42.2 ms, 101.8 MB   1 237 908
#
# (2, 4) is within a few percent of (4, 6) and (8, 10) is slower. The
# defaults peak up to 3.6 MB lower, at 512^2, but take 45 % longer there.
NEWTON_LU = {"panel_size": 4, "relax": 6}


def _mirror(n):
    """Quarter index of each cell on an axis of n cells: i -> min(i, n - 1 - i)."""
    i = np.arange(n)
    return np.minimum(i, n - 1 - i)


class _Orbits:
    """The cells of the grid grouped by the symmetries of J, and the fold of
    a cell array onto one cell of each group.

    The fundamental cells are those of the lower-left ceil(ny/2) x
    ceil(nx/2) quarter, or on a square grid (nx == ny, hx == hy) those of
    the quarter with j <= i, in C order (j major); cells holds their flat
    indices in the quarter. index holds the fundamental index of each
    quarter cell, (j, i) and (i, j) sharing one on a square grid; mult
    counts the cells of the grid each fundamental cell stands for.
    """

    __slots__ = ("shape", "square", "cells", "index", "mult")

    def __init__(self, grid):
        self.shape = (grid.ny, grid.nx)
        self.square = grid.nx == grid.ny and grid.hx == grid.hy
        counts = [np.bincount(_mirror(n)) for n in self.shape]  # cells per quarter cell, per axis
        kept = np.ones((counts[0].size, counts[1].size), bool)
        if self.square:
            kept = np.triu(kept)
        index = np.cumsum(kept, dtype=np.int32).reshape(kept.shape) - 1
        self.cells = np.flatnonzero(kept)
        self.index = np.where(kept, index, index.T) if self.square else index
        self.mult = np.bincount(self.index.ravel(), np.outer(*counts).ravel())

    def fold(self, x):
        """Mean of the cell array x over each orbit, on the fundamental cells."""
        qy, qx = self.index.shape
        x = 0.5 * x[:qy] + 0.5 * x[::-1][:qy]
        x = 0.5 * x[:, :qx] + 0.5 * x[:, ::-1][:, :qx]
        if self.square:
            x = 0.5 * x + 0.5 * x.T
        return np.take(x, self.cells)

    def unfold(self, x):
        """The cell array constant on each orbit that equals x on the fundamental cells."""
        ny, nx = self.shape
        return np.take(np.take(x[self.index], _mirror(ny), axis=0), _mirror(nx), axis=1)


def _folded_bands(n, h):
    """(diag, lower, upper) of the Dirichlet second difference on an axis of
    n cells, folded onto its first ceil(n/2) cells: row i of the folded
    operator holds lower[i] at column i - 1, diag[i] at i and upper[i] at
    i + 1, and lower[0] and upper[-1] are 0.

    It is (1/h^2) tridiag(1, -2, 1) with the ghost = -interior closure
    (first diagonal -3/h^2), times the mirror extension (cell i takes quarter
    cell min(i, n - 1 - i)). On an even axis the last quarter cell's right
    neighbour is itself, so its diagonal is -2/h^2 + 1/h^2; on an odd one the
    middle cell's two neighbours are one quarter cell, so its lower entry is
    2/h^2. Every entry is a multiple of the rounded 1/h^2, as scipy forms
    poisson._lap1d: a sparse matrix over h^2 is that matrix times 1/h^2.
    """
    c = 1.0 / (h * h)
    q = (n + 1) // 2
    diag = np.full(q, -2.0 * c)
    diag[0] = -3.0 * c
    lower = np.full(q, c)
    lower[0] = 0.0
    upper = np.full(q, c)
    upper[-1] = 0.0
    if n % 2:
        lower[-1] = c + c
    else:
        diag[-1] = -2.0 * c + c
    return diag, lower, upper


def _newton_matrix(grid, orbits):
    """B = diag(v + w) - A on the fundamental cells in CSC form, to be
    completed per iterate.

    A = S Lap_h P is the Dirichlet Lap_h folded onto the fundamental cells
    of orbits: P extends a fundamental array to the grid and S restricts to
    the fundamental cells. On the quarter it is the Kronecker sum of the two
    folded axes: column (j, i) holds rows (j - 1, i), (j, i - 1), (j, i),
    (j, i + 1) and (j + 1, i), in that order, where they exist. On the
    eighth (j <= i), column (j, i) also takes the column of its mirror
    (i, j), which reaches the eighth only for i = j + 1, in rows (j, j) and
    (j + 1, j + 1), doubling those two entries; on the diagonal the rows
    (j, j - 1) and (j + 1, j) lie outside the eighth. Returns (B, slots,
    diag, g): B holds -A off the diagonal, writing (v + w) - diag into
    B.data[slots] completes it, and g = -A 1, the row sums, nonnegative
    and nonzero only at the walls. The arrays are those of
    (scipy.sparse.diags(v + w) - S Lap_h P).tocsc(), bit for bit; like
    scipy, they leave out the entries of an axis whose 1/h^2 is 0 (h^2
    overflows).
    """
    dx, lx, ux = _folded_bands(grid.nx, grid.hx)
    dy, ly, uy = _folded_bands(grid.ny, grid.hy)
    qy, qx = dy.size, dx.size
    # entry (j, i, b) is band b of column (j, i): the value of B in row
    # (j - 1, i), (j, i - 1), (j, i), (j, i + 1) or (j + 1, i) for b = 0..4;
    # a 0 marks no entry
    bands = np.zeros((qy, qx, 5))
    bands[1:, :, 0] = -uy[:-1, None]
    bands[:, 1:, 1] = -ux[:-1]
    bands[:, :-1, 3] = -lx[1:]
    bands[:-1, :, 4] = -ly[1:, None]
    if orbits.square:
        k = np.arange(qx)
        bands[k[:-1], k[1:], 1::3] *= 2.0
        bands[k, k, 1::3] = 0.0
    # the fundamental index of each band's row, -1 off the quarter
    padded = np.full((qy + 2, qx + 2), -1, np.int32)
    padded[1:-1, 1:-1] = orbits.index
    rows = np.stack((padded[:-2, 1:-1], padded[1:-1, :-2], padded[1:-1, 1:-1],
                     padded[1:-1, 2:], padded[2:, 1:-1]), axis=-1)
    cells = orbits.cells
    bands = np.take(bands.reshape(-1, 5), cells, axis=0).ravel()
    keep = bands != 0.0
    keep[2::5] = True
    end = np.cumsum(keep, dtype=np.int32)  # end[5 k + b]: entries up to band b of column k
    indptr = np.concatenate((np.zeros(1, np.int32), end[4::5]))
    q = indptr.size - 1
    rows = np.take(rows.reshape(-1, 5), cells, axis=0).ravel()
    B = sp.csc_matrix((bands[keep], rows[keep], indptr), shape=(q, q))
    gx, gy = (-(d + l + u) for d, l, u in ((dx, lx, ux), (dy, ly, uy)))
    return B, end[2::5] - 1, np.take(dx + dy[:, None], cells), np.take(gx + gy[:, None], cells)


def _newton_direction(B, g, mult, v, w, R, M, N, vol):
    """Exact Newton direction on the fundamental cells: solves
    (B - U V^T) delta = R by Woodbury.

    v, w and R are fundamental cell vectors, B = diag(v + w) - A in CSC
    form with A the folded Lap_h, g = -A 1, U = [a v, b w] with
    a = sqrt(vol/M), b = sqrt(vol/N), V = mult U, and Z = B^-1 [R, U, g].
    As B 1 = v + w + g and a^2 mult^T v = 1 (v carries the mass M), the
    capacitance C = I - W, W = V^T Z_U, has C_00 = (a/b) W_01 + a t_0 and
    C_11 = (b/a) W_10 + b t_1 with t = V^T Z_g, and

        det C = a W_01 t_1 + b W_10 t_0 + a b t_0 t_1,

    all sums of nonnegative terms (B is an M-matrix), so nothing cancels at
    any mass. C^-1 is the adjugate over det C. A det of 0 or inf, or an a or
    b that overflows (vol/M past the double range), gives a direction that
    is not finite and no warning, which solve_pb reports. The LU of B lives
    only in this call, so it is freed before the next iteration makes its own.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        a, b = np.sqrt(vol / M), np.sqrt(vol / N)
        U = np.column_stack((a * v, b * w))
        V = mult[:, None] * U
        Z = splu(B, permc_spec="MMD_AT_PLUS_A", **NEWTON_LU).solve(np.column_stack((R, U, g)))
        (y0, _, w01, t0), (y1, w10, _, t1) = V.T @ Z  # V^T Z_R, W and t
        c00, c11 = (a / b) * w01 + a * t0, (b / a) * w10 + b * t1
        det = a * w01 * t1 + b * w10 * t0 + a * b * t0 * t1
        x = np.array((c11 * y0 + w01 * y1, w10 * y0 + c00 * y1)) / det
        return Z[:, 0] + Z[:, 1:3] @ x


def solve_pb(M, N, grid, max_iter=50):
    """Damped Newton solve of the discrete Poisson-Boltzmann problem from phi = 0.

    Terminates when the grid-L2 norm of R(phi) drops to the rounding that
    evaluating R leaves, grid.ROUNDING ((||Lap_h|| + max(v + w)) |phi| + |v|
    + |w|), where ||Lap_h|| + max(v + w) bounds the norm of the Newton matrix
    B. The stop scales with the data, so it holds at any mass and on any
    grid; a residual or bound that overflows is a NonConvergence, never a
    stop. Each direction is solved on the fundamental cells (the lower-left
    quarter, or the eighth of it with j <= i on a square grid) and
    unfolded, so every iterate is exactly even about both mid-lines, and on
    a square grid equal to its transpose; the residual, the stop and the
    line search see every cell.
    """
    if M <= 0.0 or N <= 0.0:
        raise ValueError("masses must be positive")
    shape = (grid.ny, grid.nx)
    orbits = _Orbits(grid)
    B, slots, lap_diag, g = _newton_matrix(grid, orbits)
    vol = grid.vol
    phi = np.zeros(shape)
    dens_v, dens_w, log_v, log_w = _maxwellians(phi, M, N, vol)
    J0 = None  # J at phi; after the first step, the line search's value

    def evaluate(arr):
        """J at a line-search trial, and its Maxwellians and log-integrals."""
        field = ScalarField(grid, arr)
        maxwellians = _maxwellians(arr, M, N, vol)
        return _functional(field, M, N, *maxwellians[2:]), maxwellians

    history = []
    for k in range(max_iter + 1):
        R = _stencil(phi, grid, "dirichlet") - dens_v + dens_w
        res, norm_phi, norm_v, norm_w = (_grid_l2(grid, a) for a in (R, phi, dens_v, dens_w))
        norm_b = grid.lap_norm + float((dens_v + dens_w).max())
        bound = ROUNDING * (norm_b * norm_phi + norm_v + norm_w)
        if not (np.isfinite(res) and np.isfinite(bound)):
            raise NonConvergence(k, res, "Poisson-Boltzmann Newton (residual or bound overflows)")
        if res <= bound:
            history.append((res, 0.0, 0))
            break
        if k == max_iter:
            raise NonConvergence(k, res, "Poisson-Boltzmann Newton")
        v_f, w_f, R_f = (orbits.fold(a) for a in (dens_v, dens_w, R))
        B.data[slots] = (v_f + w_f) - lap_diag
        delta = orbits.unfold(_newton_direction(B, g, orbits.mult, v_f, w_f, R_f, M, N, vol))
        slope = -vol * float(np.vdot(R, delta))
        descends = slope < 0.0
        if not descends:  # on tiny cells vol R^T delta, or R^T delta, underflows: scale R, delta
            with np.errstate(invalid="ignore"):
                descends = np.vdot(R / np.abs(R).max(), delta / np.abs(delta).max()) > 0.0
        if not (np.isfinite(delta).all() and descends):
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
    _, _, log_ip, log_im = _maxwellians(phi, s.M, s.N, s.grid.vol)
    alpha2 = 2.0 * np.exp(0.5 * (np.log(s.M) + np.log(s.N) - log_ip - log_im))
    beta = 0.5 * (np.log(s.N) + log_ip - np.log(s.M) - log_im)
    r = apply_dirichlet_laplacian(s.phi).data - alpha2 * np.sinh(phi - beta)
    return _grid_l2(s.grid, r)


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
