"""Uniform Cartesian MAC grid: field containers, quadrature and discrete calculus.

Layout
------
The domain is the open rectangle (0, lx) x (0, ly) split into nx * ny equal
cells. Scalars (charge densities, potential, pressure) live at cell centers;
vector fields live on cell faces in the usual marker-and-cell arrangement:

        +---uy[j+1,i]---+
        |               |
    ux[j,i]   c[j,i]   ux[j,i+1]        c : (ny, nx)   cell centers
        |               |              ux : (ny, nx+1) vertical faces
        +---uy[j,i]-----+              uy : (ny+1, nx) horizontal faces

Arrays are indexed [j, i] with j the y-row and i the x-column, so a plain
text dump of a field reads like a map of the domain with y increasing
downwards. Cell (j, i) is centered at ((i + 1/2) hx, (j + 1/2) hy).

The staggered placement makes the discrete gradient (cells to faces) and
divergence (faces to cells) exact negative adjoints of each other whenever
the boundary faces carry zeros:

    <grad f, g>_faces = -<f, div g>_cells

and that single identity is what the conservation and energy-dissipation
checks in the rest of the package lean on.

Quadrature is the midpoint rule everywhere: integrate(f) = hx*hy*sum(f),
exact for cellwise-linear integrands and second-order otherwise.
"""

import warnings

import numpy as np

from .errors import NonFinite

# Largest residual a direct solve (transform or banded) may leave, relative to
# eps-scaled data: a solve passes while |A x - b| <= ROUNDING (|b| + ||A|| |x|).
# The worst measured ratio to eps was 1.1 (Poisson, 3^2 to 2048^2, thin grids,
# rough and 1e6-scale data) and 0.7 (transport sweeps, dt up to 1e8), so 64
# leaves room for unmeasured grids, while a 1e-8 relative error in a solve
# still overshoots the bound by orders of magnitude. The Newton stop of
# stationary.solve_pb and the projection check of fluid.step_velocity scale it
# the same way: the Newton rounding floor measured 0.0008 to 0.0034 of its
# bound (M + N from 0.15 to 3e6, 16^2 to 256^2 and 8192x3), and the projected
# divergence 0.005 to 0.013 of its bound (vortex amplitude 0.5 to 1e8, 64^2 to
# 512^2), where a 1e-8 relative error in the projection overshoots it 1600x.
ROUNDING = 64.0 * np.finfo(float).eps


class Grid2D:
    """Descriptor of the uniform mesh. Immutable after construction."""

    def __init__(self, nx, ny, lx=1.0, ly=1.0):
        nx = int(nx)
        ny = int(ny)
        if nx < 3 or ny < 3:
            raise ValueError(f"need at least 3 cells per direction, got {nx}x{ny}")
        if not (lx > 0.0 and ly > 0.0):
            raise ValueError(f"domain sides must be positive, got {lx}, {ly}")
        self.nx = nx
        self.ny = ny
        self.lx = float(lx)
        self.ly = float(ly)
        self.hx = self.lx / nx
        self.hy = self.ly / ny
        self.vol = self.hx * self.hy
        self.area = self.lx * self.ly
        # ||Lap_h|| <= 4/hx^2 + 4/hy^2 (grid L2), which scales every rounding bound
        with np.errstate(over="ignore", divide="ignore"):
            self.lap_norm = float(4.0 / np.float64(self.hx) ** 2 + 4.0 / np.float64(self.hy) ** 2)
        sizes = np.array([self.hx, self.hy, self.vol, self.lap_norm])
        if not np.all((sizes >= np.finfo(float).tiny) & (sizes < np.inf)):
            raise ValueError(f"cells of {self.hx:.3g} x {self.hy:.3g} leave the double range")

    def cell_centers(self):
        """Return (X, Y) center coordinate arrays of shape (ny, nx)."""
        x = (np.arange(self.nx) + 0.5) * self.hx
        y = (np.arange(self.ny) + 0.5) * self.hy
        return np.meshgrid(x, y)

    def __repr__(self):
        return f"Grid2D(nx={self.nx}, ny={self.ny}, lx={self.lx}, ly={self.ly})"


class ScalarField:
    """Cell-centered field: data array of shape (ny, nx), all entries finite."""

    __slots__ = ("grid", "data")

    def __init__(self, grid, data):
        data = np.ascontiguousarray(data, dtype=float)
        if data.shape != (grid.ny, grid.nx):
            raise ValueError(
                f"scalar data shape {data.shape} does not match grid "
                f"({grid.ny}, {grid.nx})"
            )
        if not np.all(np.isfinite(data)):
            raise NonFinite("scalar field contains non-finite entries")
        self.grid = grid
        self.data = data

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros((grid.ny, grid.nx)))

    @classmethod
    def full(cls, grid, value):
        return cls(grid, np.full((grid.ny, grid.nx), float(value)))

    @classmethod
    def from_function(cls, grid, fn):
        X, Y = grid.cell_centers()
        return cls(grid, fn(X, Y))

    def copy(self):
        return ScalarField(self.grid, self.data.copy())


class MacVectorField:
    """Face-staggered vector field; ux on vertical faces, uy on horizontal ones.

    Velocity fields additionally keep every boundary face at zero (no-slip,
    no-penetration walls); that is the caller's contract, checked by
    assert_no_slip, because derived face fields (gradients with boundary
    ghosts attached) legitimately carry boundary values.
    """

    __slots__ = ("grid", "ux", "uy")

    def __init__(self, grid, ux, uy):
        ux = np.ascontiguousarray(ux, dtype=float)
        uy = np.ascontiguousarray(uy, dtype=float)
        if ux.shape != (grid.ny, grid.nx + 1):
            raise ValueError(f"ux shape {ux.shape} != {(grid.ny, grid.nx + 1)}")
        if uy.shape != (grid.ny + 1, grid.nx):
            raise ValueError(f"uy shape {uy.shape} != {(grid.ny + 1, grid.nx)}")
        if not (np.all(np.isfinite(ux)) and np.all(np.isfinite(uy))):
            raise NonFinite("vector field contains non-finite entries")
        self.grid = grid
        self.ux = ux
        self.uy = uy

    @classmethod
    def zeros(cls, grid):
        return cls(grid, np.zeros((grid.ny, grid.nx + 1)), np.zeros((grid.ny + 1, grid.nx)))

    def copy(self):
        return MacVectorField(self.grid, self.ux.copy(), self.uy.copy())

    def max_speed(self):
        return max(float(np.abs(self.ux).max()), float(np.abs(self.uy).max()))

    def is_zero(self):
        return not (np.any(self.ux) or np.any(self.uy))

    def assert_no_slip(self, tol=0.0):
        worst = max(float(np.abs(self.ux[:, [0, -1]]).max()),
                    float(np.abs(self.uy[[0, -1], :]).max()))
        if worst > tol:
            raise ValueError(f"boundary faces not zero (max {worst:.3e})")


# ---------------------------------------------------------------------------
# quadrature and norms
# ---------------------------------------------------------------------------

def integrate(f):
    """Midpoint-rule integral hx*hy*sum(f) over the whole domain."""
    return f.grid.vol * float(f.data.sum())


def lp_norm(f, p):
    """L^p norm by midpoint quadrature; p = inf gives the max norm."""
    if p == np.inf or p == "inf":
        return float(np.abs(f.data).max())
    p = float(p)
    if p < 1.0:
        raise ValueError(f"lp_norm needs p >= 1, got {p}")
    return float((f.grid.vol * (np.abs(f.data) ** p).sum()) ** (1.0 / p))


def grad_to_faces(f, dirichlet=False):
    """Face-centered difference gradient of a cell field.

    Interior faces get the centered two-point difference. Boundary faces are
    zero by default; with dirichlet=True they get the one-sided difference
    against the ghost convention ghost = -interior (face value 0), which is
    the gradient the homogeneous-Dirichlet Laplacian of the poisson module
    induces.
    """
    g = f.grid
    d = f.data
    gx = np.zeros((g.ny, g.nx + 1))
    gy = np.zeros((g.ny + 1, g.nx))
    gx[:, 1:-1] = (d[:, 1:] - d[:, :-1]) / g.hx
    gy[1:-1, :] = (d[1:, :] - d[:-1, :]) / g.hy
    if dirichlet:
        gx[:, 0] = 2.0 * d[:, 0] / g.hx
        gx[:, -1] = -2.0 * d[:, -1] / g.hx
        gy[0, :] = 2.0 * d[0, :] / g.hy
        gy[-1, :] = -2.0 * d[-1, :] / g.hy
    return MacVectorField(g, gx, gy)


def div_from_faces(u):
    """Cell-centered divergence (ux_E - ux_W)/hx + (uy_N - uy_S)/hy."""
    g = u.grid
    d = (u.ux[:, 1:] - u.ux[:, :-1]) / g.hx + (u.uy[1:, :] - u.uy[:-1, :]) / g.hy
    return ScalarField(g, d)


def h1_seminorm(f):
    """Squared H1 seminorm |grad f|^2 with the homogeneous-Dirichlet walls.

    Face quadrature of grad_to_faces(f, dirichlet=True): interior faces at
    full weight, the wall faces (2 f / h) at half weight, which makes the
    result agree exactly with the quadratic form -<f, Lap_h f> * hx * hy of
    the Dirichlet Laplacian; the energy bookkeeping in the diagnostics module
    relies on that exact agreement.
    """
    grad = grad_to_faces(f, dirichlet=True)
    gx, gy = grad.ux, grad.uy
    s = float((gx[:, 1:-1] ** 2).sum() + (gy[1:-1, :] ** 2).sum())
    s += 0.5 * float((gx[:, 0] ** 2).sum() + (gx[:, -1] ** 2).sum())
    s += 0.5 * float((gy[0, :] ** 2).sum() + (gy[-1, :] ** 2).sum())
    return f.grid.vol * s


def kinetic_energy(u):
    """(1/2) integral |u|^2 by face-value quadrature (one cell volume per face)."""
    g = u.grid
    return 0.5 * g.vol * float((u.ux * u.ux).sum() + (u.uy * u.uy).sum())


def grad_norm_sq(u):
    """Squared H1 seminorm of a no-slip MAC velocity field.

    Uses face differences plus the tangential wall ghosts (ghost = -interior),
    weighted so the value equals -<u, Lap_h u> * hx * hy for the viscous
    Laplacian of the fluid module. Normal derivatives at walls land on the
    boundary faces themselves, which hold the (zero) boundary values, so no
    ghost is needed there.
    """
    g = u.grid
    hx, hy = g.hx, g.hy
    ux, uy = u.ux, u.uy
    # ux: d/dx spans every consecutive face pair (boundary faces included),
    # d/dy interior rows at full weight, wall ghost rows at half weight.
    s = float((((ux[:, 1:] - ux[:, :-1]) / hx) ** 2).sum())
    s += float((((ux[1:, :] - ux[:-1, :]) / hy) ** 2).sum())
    s += 0.5 * float(((2.0 * ux[0, :] / hy) ** 2).sum())
    s += 0.5 * float(((2.0 * ux[-1, :] / hy) ** 2).sum())
    # uy mirrored.
    s += float((((uy[1:, :] - uy[:-1, :]) / hy) ** 2).sum())
    s += float((((uy[:, 1:] - uy[:, :-1]) / hx) ** 2).sum())
    s += 0.5 * float(((2.0 * uy[:, 0] / hx) ** 2).sum())
    s += 0.5 * float(((2.0 * uy[:, -1] / hx) ** 2).sum())
    return g.vol * s


def face_inner(a, b):
    """Face-quadrature inner product of two MAC fields."""
    g = a.grid
    return g.vol * float((a.ux * b.ux).sum() + (a.uy * b.uy).sum())


def cell_inner(f, q):
    """Midpoint inner product of two cell fields."""
    return f.grid.vol * float((f.data * q.data).sum())


# ---------------------------------------------------------------------------
# snapshot files
# ---------------------------------------------------------------------------

def save_matrix(path, data):
    """Write a 2-D array as plain text, one grid row per line, 17 significant digits."""
    np.savetxt(path, np.atleast_2d(data), fmt="%.17g", delimiter=" ")


def load_matrix(path):
    """Read a matrix written by save_matrix; ValueError if the file holds no numbers."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        data = np.loadtxt(path, ndmin=2)
    if data.size == 0:
        raise ValueError(f"{path} holds no data")
    return data
