"""Five-point Laplacian solves on the MAC grid, by trigonometric transforms.

Each axis of an array carries one of three homogeneous closures, named by
the ghost value just outside the wall as a multiple of the interior cell
next to it (_GHOST_SIGN):

* "dirichlet", ghost = -interior: the implied zero sits on the wall face
  itself (electrostatic potential; tangential velocity at a no-slip wall).
* "neumann", ghost = interior: zero normal differences at the walls
  (pressure projection). Singular, with a constant nullspace.
* "value", ghost = 0: the unknowns are flanked by known zeros (normal
  velocity on the faces next to a wall).

On a tensor grid each 1-D closure is diagonalized exactly by a real
orthonormal transform (_TRANSFORM: DST-II, DST-I, DCT-II; Lynch, Rice &
Thomas, Numer. Math. 6, 1964; Swarztrauber, SIAM Rev. 19, 1977), so
transform_solve solves (Lap - shift) x = b with a forward transform per
axis, one divide by the summed 1-D spectra and the inverse transforms; no
matrix is assembled or factored. The Dirichlet potential and the Neumann
projection are solved with shift 0, the viscous step of the fluid module
with shift 1/dt. With two Neumann axes and shift 0 the constant mode is set
to zero, which returns the zero-mean solution directly; the right-hand
side must then have zero integral.

solve_dirichlet and solve_neumann check the residual of every solve with
the matrix-free stencil in the grid L2 norm sqrt(hx*hy*sum(r^2)) against
the rounding a direct solve leaves, grid.ROUNDING * (|rhs| + ||Lap_h|| |x|)
with ||Lap_h|| <= 4/hx^2 + 4/hy^2 (Grid2D.lap_norm), so the check means the
same thing on every mesh and still catches a wrong solve. residual() is
that check; the check command holds each potential to it too.
laplacian_matrix assembles the same operator as a sparse matrix for the
tests.
"""

import functools

import numpy as np
import scipy.sparse as sp
from scipy import fft
# benchmark/spans.py wraps poisson.splu to count Poisson LUs; the solves make none.
from scipy.sparse.linalg import splu  # noqa: F401

from .errors import Incompatible, NonConvergence
from .grid import ROUNDING, ScalarField, integrate

# ghost cell beyond the wall = sign * interior cell next to it
_GHOST_SIGN = {"dirichlet": -1.0, "neumann": 1.0, "value": 0.0}

# closure -> (forward, inverse, type) of the orthonormal transform diagonalizing it
_TRANSFORM = {
    "dirichlet": (fft.dst, fft.idst, 2),
    "value": (fft.dst, fft.idst, 1),
    "neumann": (fft.dct, fft.idct, 2),
}


def _lap1d(n, h, boundary):
    """Second-difference matrix (1/h^2) tridiag(1, -2, 1) with boundary closure.

    The end diagonals are -2 + _GHOST_SIGN[boundary]: -3 for "dirichlet",
    -1 for "neumann", -2 for "value".
    """
    main = np.full(n, -2.0)
    main[[0, -1]] += _GHOST_SIGN[boundary]
    off = np.ones(n - 1)
    return sp.diags([off, main, off], [-1, 0, 1], format="csr") / (h * h)


@functools.lru_cache(maxsize=32)
def _lap1d_eigenvalues(n, h, boundary):
    """Eigenvalues -(4/h^2) sin^2(theta_k) of _lap1d, as a read-only array.

    They are listed in the mode order of the transform _TRANSFORM[boundary]:

    boundary "dirichlet": DST-II, theta_k = k pi / (2n),      k = 1..n.
    boundary "value":     DST-I,  theta_k = k pi / (2(n+1)),  k = 1..n.
    boundary "neumann":   DCT-II, theta_k = k pi / (2n),      k = 0..n-1.

    A step asks for the same few spectra again and again, so they are kept.
    """
    k = np.arange(n) + (boundary != "neumann")
    m = n + 1 if boundary == "value" else n
    lam = -4.0 / (h * h) * np.sin(k * (np.pi / (2 * m))) ** 2
    lam.flags.writeable = False
    return lam


def transform_solve(b, closures, spacings, shift=0.0):
    """Solve (Lap - shift) x = b for an array b, one closure per axis.

    closures and spacings list the closure and the mesh width of each axis
    of b in order. shift >= 0; with shift 0 and every axis "neumann" the
    constant mode of x is set to zero (zero-mean x for compatible b).
    """
    xh = b
    lam = -shift
    for axis, (closure, h) in enumerate(zip(closures, spacings)):
        forward, _, kind = _TRANSFORM[closure]
        xh = forward(xh, type=kind, axis=axis, norm="ortho")
        shape = [1] * b.ndim
        shape[axis] = b.shape[axis]
        lam = lam + _lap1d_eigenvalues(b.shape[axis], h, closure).reshape(shape)
    singular = shift == 0.0 and all(c == "neumann" for c in closures)
    if singular:
        lam = lam.copy()
        lam.flat[0] = 1.0
    xh /= lam
    if singular:
        xh.flat[0] = 0.0
    for axis in reversed(range(b.ndim)):
        _, inverse, kind = _TRANSFORM[closures[axis]]
        xh = inverse(xh, type=kind, axis=axis, norm="ortho")
    return xh


def _stencil(x, grid, boundary):
    """Five-point Lap_h x on a cell array, with ghost = sign * interior."""
    s = _GHOST_SIGN[boundary]
    # the corners of the ghost frame are never read
    xp = np.empty((x.shape[0] + 2, x.shape[1] + 2))
    xp[1:-1, 1:-1] = x
    xp[0, 1:-1], xp[-1, 1:-1] = s * x[0], s * x[-1]
    xp[1:-1, 0], xp[1:-1, -1] = s * x[:, 0], s * x[:, -1]
    c = 2.0 * x
    return ((xp[:-2, 1:-1] - c + xp[2:, 1:-1]) / (grid.hy * grid.hy)
            + (xp[1:-1, :-2] - c + xp[1:-1, 2:]) / (grid.hx * grid.hx))


def laplacian_matrix(grid, boundary="dirichlet"):
    """Assemble the 2-D operator on cells flattened in C order (j major)."""
    dxx = _lap1d(grid.nx, grid.hx, boundary)
    dyy = _lap1d(grid.ny, grid.hy, boundary)
    ix = sp.identity(grid.nx, format="csr")
    iy = sp.identity(grid.ny, format="csr")
    return (sp.kron(dyy, ix) + sp.kron(iy, dxx)).tocsr()


def apply_dirichlet_laplacian(f):
    """Check helper: Lap_h f with the ghost = -interior closure."""
    return ScalarField(f.grid, _stencil(f.data, f.grid, "dirichlet"))


def _grid_l2(grid, r):
    """sqrt(vol sum(r^2)); the product is a Python one, which overflows to inf without a warning."""
    return float(np.sqrt(grid.vol * float(np.vdot(r, r))))


def residual(x, rhs, boundary="dirichlet"):
    """Grid-L2 residual of Lap_h x = rhs, mean-free for Neumann, and its rounding bound."""
    grid = rhs.grid
    r = _stencil(x.data, grid, boundary) - rhs.data
    if boundary == "neumann":
        r -= r.mean()
    bound = ROUNDING * (_grid_l2(grid, rhs.data) + grid.lap_norm * _grid_l2(grid, x.data))
    return _grid_l2(grid, r), bound


def _solve(rhs, boundary, what):
    """Transform solve of Lap_h x = rhs with its residual check."""
    grid = rhs.grid
    x = ScalarField(grid, transform_solve(rhs.data, (boundary, boundary), (grid.hy, grid.hx)))
    res, bound = residual(x, rhs, boundary)
    if res > bound:
        raise NonConvergence(1, res, what)
    return x


def solve_dirichlet(rhs):
    """Solve Lap_h phi = rhs with homogeneous Dirichlet walls."""
    return _solve(rhs, "dirichlet", "Dirichlet Poisson solve")


def solve_neumann(rhs):
    """Solve Lap_h p = rhs with homogeneous Neumann walls, zero-mean output.

    The right-hand side must integrate to zero (up to 1e-10, scaled by its
    own size); otherwise the singular system has no solution and
    Incompatible is raised.
    """
    mass = integrate(rhs)
    if abs(mass) > 1e-10 * (1.0 + _grid_l2(rhs.grid, rhs.data)):
        raise Incompatible(mass)
    return _solve(rhs, "neumann", "Neumann Poisson solve")
