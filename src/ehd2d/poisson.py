"""Five-point Laplacian solves on the MAC grid.

Two boundary treatments are needed by the rest of the package:

* homogeneous Dirichlet (electrostatic potential): ghost cell = -interior
  cell, so the implied boundary value sits on the wall face itself. The
  operator is symmetric negative definite.
* homogeneous Neumann (pressure projection): zero normal differences at the
  walls. The operator is singular with a constant nullspace; solutions are
  returned with zero mean and the right-hand side must have zero integral.

Both solves use a sparse LU factorization cached per grid in this module
(grids stay at or below a few hundred squared, where the factorization is
milliseconds and the back-substitutions are essentially free); callers that
only need the operator take laplacian_matrix instead. Every sparse LU in the
package orders its columns by minimum degree on A^T + A (MMD_AT_PLUS_A),
which suits these structurally symmetric operators and cuts their fill.

The "dirichlet" and "value" closures of _lap1d are also diagonalized
exactly by real sine transforms; _lap1d_eigenvalues lists their spectra,
with which the fluid module solves its viscous step directly.

Residuals are measured in the grid L2 norm sqrt(hx*hy*sum(r^2)) against
tol * (1 + |rhs|), so tolerances mean the same thing on every mesh.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .errors import Incompatible, NonConvergence
from .grid import ScalarField, integrate

_DEFAULT_TOL = 1e-10


def _lap1d(n, h, boundary):
    """Second-difference matrix (1/h^2) tridiag(1, -2, 1) with boundary closure.

    boundary "dirichlet": ghost = -interior, end diagonals -3/h^2.
    boundary "neumann":   ghost =  interior, end diagonals -1/h^2.
    boundary "value":     unknowns flanked by known zeros, plain -2/h^2 ends.
    """
    main = np.full(n, -2.0)
    if boundary == "dirichlet":
        main[0] = main[-1] = -3.0
    elif boundary == "neumann":
        main[0] = main[-1] = -1.0
    elif boundary == "value":
        pass
    else:
        raise ValueError(boundary)
    off = np.ones(n - 1)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr") / (h * h)


def _lap1d_eigenvalues(n, h, boundary):
    """Eigenvalues -(4/h^2) sin^2(theta_k) of _lap1d for the sine closures.

    They are listed in the mode order of the orthonormal sine transform that
    diagonalizes the closure, scipy.fft.dst of type _DST_TYPE[boundary]
    (Lynch, Rice & Thomas, Numer. Math. 6, 1964):

    boundary "dirichlet": DST-II, theta_k = k pi / (2n),      k = 1..n.
    boundary "value":     DST-I,  theta_k = k pi / (2(n+1)),  k = 1..n.
    """
    if boundary == "dirichlet":
        m = n
    elif boundary == "value":
        m = n + 1
    else:
        raise ValueError(boundary)
    theta = np.arange(1, n + 1) * (np.pi / (2 * m))
    return -4.0 / (h * h) * np.sin(theta) ** 2


_DST_TYPE = {"dirichlet": 2, "value": 1}


def laplacian_matrix(grid, boundary="dirichlet"):
    """Assemble the 2-D operator on cells flattened in C order (j major)."""
    dxx = _lap1d(grid.nx, grid.hx, boundary)
    dyy = _lap1d(grid.ny, grid.hy, boundary)
    ix = sp.identity(grid.nx, format="csr")
    iy = sp.identity(grid.ny, format="csr")
    return (sp.kron(dyy, ix) + sp.kron(iy, dxx)).tocsr()


_dirichlet_cache = {}
_neumann_cache = {}


def _dirichlet_ops(grid):
    key = grid.key()
    if key not in _dirichlet_cache:
        A = laplacian_matrix(grid, "dirichlet")
        _dirichlet_cache[key] = (A, splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A"))
    return _dirichlet_cache[key]


def _neumann_ops(grid):
    key = grid.key()
    if key not in _neumann_cache:
        A = laplacian_matrix(grid, "neumann")
        # Pin one cell to lift the constant nullspace. For compatible data
        # (zero integral) the pinned equation is implied by the others, so
        # the direct solve is exact; the mean is removed afterwards.
        Ap = A.tolil(copy=True)
        Ap[0, :] = 0.0
        Ap[0, 0] = 1.0
        _neumann_cache[key] = (A, splu(Ap.tocsr().tocsc(), permc_spec="MMD_AT_PLUS_A"))
    return _neumann_cache[key]


def apply_dirichlet_laplacian(f):
    """Check helper: Lap_h f with the ghost = -interior closure."""
    A, _ = _dirichlet_ops(f.grid)
    return ScalarField(f.grid, (A @ f.data.ravel()).reshape(f.data.shape))


def _grid_l2(grid, r):
    return float(np.sqrt(grid.vol * (r @ r)))


def solve_dirichlet(rhs, tol=_DEFAULT_TOL):
    """Solve Lap_h phi = rhs with homogeneous Dirichlet walls.

    Returns phi with grid-L2 residual at most tol * (1 + |rhs|_2). The
    operator is factorized once per grid; each call back-substitutes.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    grid = rhs.grid
    A, lu = _dirichlet_ops(grid)
    b = rhs.data.ravel()
    x = lu.solve(b)
    res = _grid_l2(grid, A @ x - b)
    if res > tol * (1.0 + _grid_l2(grid, b)):
        raise NonConvergence(1, res, "Dirichlet Poisson solve")
    return ScalarField(grid, x.reshape(rhs.data.shape))


def solve_neumann(rhs, tol=_DEFAULT_TOL):
    """Solve Lap_h p = rhs with homogeneous Neumann walls, zero-mean output.

    The right-hand side must integrate to zero (up to 1e-10, scaled by its
    own size); otherwise the singular system has no solution and
    Incompatible is raised.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    grid = rhs.grid
    mass = integrate(rhs)
    b = rhs.data.ravel()
    scale = 1.0 + _grid_l2(grid, b)
    if abs(mass) > 1e-10 * scale:
        raise Incompatible(mass)
    A, lu = _neumann_ops(grid)
    bp = b.copy()
    bp[0] = 0.0
    x = lu.solve(bp)
    x -= x.mean()
    # residual in the mean-zero subspace
    r = A @ x - b
    r -= r.mean()
    res = _grid_l2(grid, r)
    if res > tol * scale:
        raise NonConvergence(1, res, "Neumann Poisson solve")
    return ScalarField(grid, x.reshape(rhs.data.shape))
