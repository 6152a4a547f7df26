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

import math
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
    return _dirichlet_h1(f.data, f.grid)


def _dirichlet_h1(d, g):
    """h1_seminorm of the cell array d, with the face gradients taken in place."""
    s = float((((d[:, 1:] - d[:, :-1]) / g.hx) ** 2).sum()
              + (((d[1:, :] - d[:-1, :]) / g.hy) ** 2).sum())
    s += 0.5 * float(((2.0 * d[:, 0] / g.hx) ** 2).sum() + ((2.0 * d[:, -1] / g.hx) ** 2).sum())
    s += 0.5 * float(((2.0 * d[0, :] / g.hy) ** 2).sum() + ((2.0 * d[-1, :] / g.hy) ** 2).sum())
    return g.vol * s


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

# save_matrix formats this many elements at a time (whole rows, at least one),
# which keeps its temporaries to a few megabytes whatever the number of rows.
_BLOCK = 16384
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for 53-bit doubles


def _split(a):
    """Veltkamp split a = hi + lo, each part of at most 26 significant bits."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _pow10(s):
    """10**s as (hi, hh, hl, lo): hi the nearest double, split into hh + hl,
    and lo the nearest double to 10**s - hi, all from exact integers."""
    num, den = (10 ** s, 1) if s >= 0 else (1, 10 ** -s)
    hi = num / den  # true division of ints rounds correctly
    n, d = hi.as_integer_ratio()
    lo = (num * d - n * den) / (den * d)
    m, e = math.frexp(hi)  # split the mantissa, so 2**27 * m cannot overflow
    mh, ml = _split(m)
    return hi, math.ldexp(mh, e), math.ldexp(ml, e), lo


def _scaled(a, k, tab):
    """Integer part and fraction of a * 10**s, where tab[:, k] = _pow10(s).

    Dekker's product gives p + err = a * hi exactly; adding a * lo leaves an
    error below 1e-13 for results under 1e18.
    """
    hi, hh, hl, lo = tab[:, k]
    p = a * hi
    ah, al = _split(a)
    err = ((ah * hh - p) + ah * hl + al * hh) + al * hl
    ip = np.floor(p)
    r = (p - ip) + (err + a * lo)
    fl = np.floor(r)
    return ip.astype(np.int64) + fl.astype(np.int64), r - fl


def _format_block(x):
    """'%.17g' % v for each v of the 1-D array x, as 30 bytes a value: row i
    of the returned (x.size, 30) uint8 array holds the text of x[i] among
    NUL bytes, and its last byte, NUL, is left for the caller's separator."""
    n = x.size
    a = np.abs(x)
    zero = a == 0.0
    exact = (a >= 1e-290) & (a <= 1e290)
    fallback = ~(exact | zero)
    a = np.where(exact, a, 1.0)

    # E, the decimal exponent: from log10, then moved by one where the scaled
    # value a * 10**(16 - E) does not have exactly 17 integer digits.
    E = np.floor(np.log10(a)).astype(np.int64)
    # tab[:, s - s0] = 10**s for every s = 16 - E, E moved by one included
    s0 = 15 - int(E.max())
    tab = np.array([_pow10(s) for s in range(s0, 18 - int(E.min()))]).T
    N, frac = _scaled(a, 16 - s0 - E, tab)
    down = N < 10 ** 16
    up = N >= 10 ** 17
    moved = down | up
    if moved.any():
        E[down] -= 1
        E[up] += 1
        N[moved], frac[moved] = _scaled(a[moved], 16 - s0 - E[moved], tab)

    # D, the 17 significant digits, rounded to nearest; a rounding up to
    # 10**17 carries into the exponent, as in printf.
    D = N + (frac > 0.5)
    fallback |= exact & ((np.abs(frac - 0.5) < 1e-9) | (D < 10 ** 16) | (D > 10 ** 17))
    carry = D == 10 ** 17
    D[carry] = 10 ** 16
    E[carry] += 1
    D[zero] = 0
    E[zero] = 0
    cols = np.arange(18, dtype=np.uint8)[:, None]
    digits = np.zeros((18, n), np.uint8)
    for k in range(16, -1, -1):
        q = D // 10
        digits[k] = D - 10 * q
        D = q
    # digits up to the last nonzero one; %g drops the zeros after it
    sig = ((digits != 0) * (cols + 1)).max(axis=0)
    digits[:17] += ord("0")

    # The %g layout. Each element gets 30 template bytes, NUL where a byte is
    # absent: sign, "0." and up to three zeros before small numbers, the
    # 17 digits with the point among them (18 bytes), "e+XXX" and the
    # separator. Dropping the NULs leaves the text.
    fixed = (E >= -4) & (E < 17)
    small = fixed & (E < 0)
    expo = ~fixed
    lead = np.where(fixed, E + 1, 1).clip(0, 17).astype(np.uint8)  # digits before the point
    at = np.where(small, 17, lead).astype(np.uint8)  # where the point goes, 17 for none
    point = sig > at
    shown = np.maximum(sig, lead) + point
    T = np.zeros((30, n), np.uint8)
    T[0] = np.signbit(x) * np.uint8(ord("-"))
    T[1] = small * np.uint8(ord("0"))
    T[2] = small * np.uint8(ord("."))
    for z in (1, 2, 3):
        T[2 + z] = (small & (E < -z)) * np.uint8(ord("0"))
    body = T[6:24]
    np.multiply(digits, cols < at, out=body)
    body[1:] += digits[:-1] * (cols[1:] > at)
    body += (cols == at) * np.uint8(ord("."))
    body *= cols < shown
    ae = np.abs(E)
    T[24] = expo * np.uint8(ord("e"))
    T[25] = expo * np.where(E < 0, ord("-"), ord("+")).astype(np.uint8)
    T[26] = (expo & (ae >= 100)) * (ord("0") + ae // 100).astype(np.uint8)
    T[27] = expo * (ord("0") + ae // 10 % 10).astype(np.uint8)
    T[28] = expo * (ord("0") + ae % 10).astype(np.uint8)
    out = np.ascontiguousarray(T.T)
    for i in np.flatnonzero(fallback):
        text = ("%.17g" % x[i]).encode()
        out[i, :29] = 0
        out[i, :len(text)] = np.frombuffer(text, np.uint8)
    return out


def save_matrix(path, data):
    """Write a 2-D array as plain text, one grid row per line, 17 significant digits.

    The file is byte-identical to np.savetxt(path, np.atleast_2d(data),
    fmt="%.17g", delimiter=" "), and so reloads to the same doubles, but
    each block of rows is formatted by whole-array numpy operations.

    Each |x| is scaled to a * 10**(16 - E) in [1e16, 1e17) by a
    double-double product (Dekker 1971) with 10**(16 - E) held as a pair of
    doubles built from exact integers, which leaves an error below 1e-13;
    rounding that to the nearest integer gives the 17 digits of %.17g. An
    element falls back to Python's '%.17g' % x when that rounding cannot be
    certified, when the fraction lies within 1e-9 of 1/2 (including exact
    ties, which printf rounds to even), and where the scaling would leave
    the normal range: |x| outside [1e-290, 1e290], inf and nan. Zeros are
    laid out directly.

    When row j and row nrow - 1 - j hold the same bit patterns for every j,
    as in the stationary fields, which are even about both mid-lines, only
    the first ceil(nrow/2) rows are formatted; the remaining lines are
    those rows' text again in reverse order. Likewise, when every row that
    is formatted reads the same bits backwards, only its first ceil(ncol/2)
    values are formatted, and the right half of each line is their text
    again in reverse order, with the separators rewritten. Both mirrors
    compare bits, not values: 0.0 == -0.0, but %.17g prints them as 0 and
    -0, and NaNs may differ in payload. Any other matrix costs the two
    comparisons and is formatted whole.
    """
    data = np.atleast_2d(np.asarray(data, dtype=float))
    nrow, ncol = data.shape
    with open(path, "wb") as fh:
        if ncol == 0:  # np.savetxt's empty lines
            fh.write(b"\n" * nrow)
            return
        bits = data.view(np.uint64)
        half = nrow // 2  # rows written again in reverse order
        if not np.array_equal(bits[:half], bits[::-1][:half]):
            half = 0
        shown = nrow - half  # rows formatted
        width = ncol  # columns formatted
        if np.array_equal(bits[:shown, :ncol // 2], bits[:shown, ::-1][:, :ncol // 2]):
            width = (ncol + 1) // 2
        rows = max(1, _BLOCK // width)
        seps = np.full((rows, ncol), ord(" "), np.uint8)
        seps[:, -1] = ord("\n")
        lines = []
        for r in range(0, shown, rows):
            block = data[r:min(r + rows, shown), :width]
            cells = _format_block(block.ravel()).reshape(len(block), width, 30)
            if width < ncol:
                cells = np.concatenate((cells, cells[:, :ncol // 2][:, ::-1]), axis=1)
            cells[:, :, 29] = seps[:len(block)]
            text = cells.tobytes().translate(None, b"\0")
            fh.write(text)
            if half:
                lines += text.splitlines(keepends=True)
        fh.writelines(reversed(lines[:half]))


def load_matrix(path):
    """Read a matrix written by save_matrix; ValueError if the file holds no numbers."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        data = np.loadtxt(path, ndmin=2)
    if data.size == 0:
        raise ValueError(f"{path} holds no data")
    return data
