"""Coupled time-stepping driver, scenario presets and run configuration.

One step advances the full system state {u, p, v, w, phi, t} through the
lagged splitting

    1. phi  <- carried by the state (the Poisson solve of its v - w)
    2. v, w <- split backward-Euler Scharfetter-Gummel transport, an x sweep
              then a y sweep (phi, u frozen)
    3. f    <- (v - w) grad phi on faces
    4. u, p <- projection step under f
    5. phi refreshed from the updated charges

so the returned state again carries the potential consistent with its own
charges. The splitting is first order in dt; the advective CFL limit
dt <= cfl_safety * min(hx, hy) / max(|u|, |grad phi|) is enforced here (the
individual substeps are unconditionally stable).

run() drives a configured scenario to t_max with dt capped by the CFL
limit, records an EnergyReport at t = 0 and every record_every-th step, and
writes diagnostics.csv, snapshot matrices and the stationary solution the
decay diagnostics compare against. Identical configurations produce
byte-identical CSV output. A SolverError raised by a step keeps its class
and names the step number, its start time t and its dt.

Config files are plain INI-style sections of key = value lines (see
DEFAULTS for the schema); unknown sections or keys are errors, and every
value can be overridden from the command line with dotted keys such as
grid.nx=128.
"""

import configparser
import os
import warnings

import numpy as np

from .errors import CflViolation, ConfigError, SolverError
from .grid import (
    Grid2D,
    MacVectorField,
    ScalarField,
    div_from_faces,
    grad_to_faces,
    integrate,
    load_matrix,
    save_matrix,
)
from .poisson import solve_dirichlet
from .transport import step_charges
from .fluid import body_force, step_velocity
from .stationary import export_stationary, solve_pb
from .diagnostics import csv_header, csv_row, energy_report


class SystemState:
    """Bundle {u, p, v, w, phi, t}; phi is the Poisson solve of v - w.

    step() relies on that: it uses phi as given. Every state this module
    builds carries it; a hand-built state must too (solve_dirichlet of
    v - w, or phi = 0 with v = w).
    """

    __slots__ = ("u", "p", "v", "w", "phi", "t")

    def __init__(self, u, p, v, w, phi, t=0.0):
        self.u = u
        self.p = p
        self.v = v
        self.w = w
        self.phi = phi
        self.t = float(t)

    @property
    def grid(self):
        return self.v.grid

    def copy(self):
        return SystemState(
            self.u.copy(), self.p.copy(), self.v.copy(), self.w.copy(),
            self.phi.copy(), self.t,
        )


def embed_stationary(s):
    """Stationary solution as a resting system state (useful in tests and checks)."""
    return SystemState(
        MacVectorField.zeros(s.grid),
        ScalarField.zeros(s.grid),
        s.v.copy(),
        s.w.copy(),
        s.phi.copy(),
        0.0,
    )


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

DEFAULTS = {
    ("grid", "nx"): 64,
    ("grid", "ny"): 64,
    ("grid", "lx"): 1.0,
    ("grid", "ly"): 1.0,
    ("time", "dt"): 1e-3,
    ("time", "t_max"): 1.0,
    ("time", "cfl_safety"): 0.9,
    ("tolerances", "poisson"): 1e-10,
    ("tolerances", "pb"): 1e-10,
    ("tolerances", "projection"): 1e-10,
    ("initial", "preset"): "symmetric-null",
    ("initial", "M"): 0.1,
    ("initial", "N"): 0.1,
    ("initial", "eps"): 1e-3,
    ("initial", "amplitude"): 0.5,
    ("initial", "rho0_warn"): 10.0,
    ("initial", "v_file"): "",
    ("initial", "w_file"): "",
    ("output", "dir"): "out",
    ("output", "record_every"): 10,
    ("output", "snapshot_every"): 0,
}

_TYPES = {key: type(val) for key, val in DEFAULTS.items()}

# per-preset defaults applied between the global defaults and the user input
PRESET_DEFAULTS = {
    "symmetric-null": {},
    "relax-small-mass": {
        ("initial", "M"): 0.05,
        ("initial", "N"): 0.1,
        ("grid", "lx"): 4.0,
        ("grid", "ly"): 4.0,
        ("time", "dt"): 2e-3,
        ("time", "t_max"): 5.0,
    },
    "vortex-charge": {
        ("initial", "M"): 0.05,
        ("initial", "N"): 0.1,
        ("time", "dt"): 1e-3,
    },
    "near-equilibrium": {
        ("initial", "M"): 0.05,
        ("initial", "N"): 0.1,
        ("grid", "lx"): 4.0,
        ("grid", "ly"): 4.0,
        ("time", "dt"): 2e-3,
        ("time", "t_max"): 2.0,
    },
}

PRESET_DESCRIPTIONS = {
    "symmetric-null": "uniform equal charges at rest; every diagnostic stays at its equilibrium value",
    "relax-small-mass": "separated Gaussian charge bumps relaxing to the Maxwellian, fluid initially at rest",
    "vortex-charge": "divergence-free double vortex stirring Gaussian charge bumps",
    "near-equilibrium": "stationary state perturbed multiplicatively by eps",
}


class SimConfig:
    """Validated bag of run parameters; see DEFAULTS for the key schema."""

    def __init__(self, values):
        self._values = dict(values)
        g = self._values
        self.nx = g[("grid", "nx")]
        self.ny = g[("grid", "ny")]
        self.lx = g[("grid", "lx")]
        self.ly = g[("grid", "ly")]
        self.dt = g[("time", "dt")]
        self.t_max = g[("time", "t_max")]
        self.cfl_safety = g[("time", "cfl_safety")]
        self.tol_poisson = g[("tolerances", "poisson")]
        self.tol_pb = g[("tolerances", "pb")]
        self.tol_projection = g[("tolerances", "projection")]
        self.preset = g[("initial", "preset")]
        self.M = g[("initial", "M")]
        self.N = g[("initial", "N")]
        self.eps = g[("initial", "eps")]
        self.amplitude = g[("initial", "amplitude")]
        self.rho0_warn = g[("initial", "rho0_warn")]
        self.v_file = g[("initial", "v_file")]
        self.w_file = g[("initial", "w_file")]
        self.outdir = g[("output", "dir")]
        self.record_every = g[("output", "record_every")]
        self.snapshot_every = g[("output", "snapshot_every")]
        self._validate()

    def _validate(self):
        if self.dt <= 0.0:
            raise ConfigError("time.dt must be positive")
        if self.t_max < 0.0:
            raise ConfigError("time.t_max must be nonnegative")
        if not (0.0 < self.cfl_safety <= 1.0):
            raise ConfigError("time.cfl_safety must lie in (0, 1]")
        if self.M <= 0.0 or self.N <= 0.0:
            raise ConfigError("masses initial.M and initial.N must be positive")
        if self.record_every < 1:
            raise ConfigError("output.record_every must be at least 1")
        if self.snapshot_every < 0:
            raise ConfigError("output.snapshot_every must be nonnegative")
        if self.preset not in PRESET_DEFAULTS:
            raise ConfigError(
                f"unknown preset {self.preset!r}; available: {', '.join(sorted(PRESET_DEFAULTS))}"
            )
        for tol in (self.tol_poisson, self.tol_pb, self.tol_projection):
            if tol <= 0.0:
                raise ConfigError("tolerances must be positive")
        try:
            self.grid = Grid2D(self.nx, self.ny, self.lx, self.ly)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


def _coerce(key, raw):
    want = _TYPES[key]
    try:
        if want is int:
            return int(raw)
        if want is float:
            return float(raw)
        return str(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key[0]}.{key[1]}: {raw!r}") from exc


def load_config(path=None, preset=None, overrides=()):
    """Assemble a SimConfig from defaults, preset defaults, a file and overrides.

    Precedence, lowest to highest: DEFAULTS, the preset's defaults, the
    config file, then the key=value override pairs. The preset may come from
    the file itself; its defaults never override explicit file keys.
    """
    values = dict(DEFAULTS)
    file_values = {}
    if path is not None:
        cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
        try:
            with open(path) as fh:
                cp.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
        for section in cp.sections():
            for key, raw in cp.items(section):
                full = (section, key)
                if full not in DEFAULTS:
                    raise ConfigError(f"unknown config key {section}.{key}")
                file_values[full] = _coerce(full, raw)
    override_values = {}
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        dotted, raw = item.split("=", 1)
        if "." not in dotted:
            raise ConfigError(f"override key {dotted!r} needs the form section.key")
        section, key = dotted.split(".", 1)
        full = (section, key)
        if full not in DEFAULTS:
            raise ConfigError(f"unknown config key {dotted}")
        override_values[full] = _coerce(full, raw)

    chosen = values[("initial", "preset")]
    if preset is not None:
        chosen = preset
    if ("initial", "preset") in file_values:
        chosen = file_values[("initial", "preset")]
    if ("initial", "preset") in override_values:
        chosen = override_values[("initial", "preset")]
    if chosen not in PRESET_DEFAULTS:
        raise ConfigError(
            f"unknown preset {chosen!r}; available: {', '.join(sorted(PRESET_DEFAULTS))}"
        )
    values[("initial", "preset")] = chosen
    values.update(PRESET_DEFAULTS[chosen])
    values.update(file_values)
    values.update(override_values)
    return SimConfig(values)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def presets():
    """Names of the built-in initial-data generators."""
    return sorted(PRESET_DEFAULTS)


def _gaussian(X, Y, cx, cy, sigma):
    return np.exp(-((X - cx) ** 2 + (Y - cy) ** 2) / (2.0 * sigma * sigma))


def _normalized(grid, data, mass):
    f = ScalarField(grid, data)
    return ScalarField(grid, data * (mass / integrate(f)))


def _stream_velocity(grid, amplitude):
    """Divergence-free double vortex from a corner-node streamfunction."""
    xn = np.arange(grid.nx + 1) * grid.hx
    yn = np.arange(grid.ny + 1) * grid.hy
    XN, YN = np.meshgrid(xn, yn)
    xi = amplitude * np.sin(2.0 * np.pi * XN / grid.lx) * np.sin(np.pi * YN / grid.ly)
    # sin(2*pi) is only zero to roundoff; pin the wall nodes so the discrete
    # curl below is exactly no-slip.
    xi[0, :] = 0.0
    xi[-1, :] = 0.0
    xi[:, 0] = 0.0
    xi[:, -1] = 0.0
    ux = (xi[1:, :] - xi[:-1, :]) / grid.hy
    uy = -(xi[:, 1:] - xi[:, :-1]) / grid.hx
    return MacVectorField(grid, ux, uy)


def build_initial_state(config, equilibrium=None):
    """Construct the preset's initial SystemState (charges, velocity, potential)."""
    grid = config.grid
    X, Y = grid.cell_centers()
    u0 = MacVectorField.zeros(grid)

    if config.v_file or config.w_file:
        if not (config.v_file and config.w_file):
            raise ConfigError("initial.v_file and initial.w_file must be given together")
        try:
            v0 = ScalarField(grid, load_matrix(config.v_file))
            w0 = ScalarField(grid, load_matrix(config.w_file))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"bad initial charge file: {exc}") from exc
        if v0.data.min() < 0.0 or w0.data.min() < 0.0:
            raise ConfigError("initial charge files contain negative densities")
    elif config.preset == "symmetric-null":
        v0 = ScalarField.full(grid, config.M / grid.area)
        w0 = ScalarField.full(grid, config.N / grid.area)
    elif config.preset == "relax-small-mass":
        sigma = 0.12 * min(grid.lx, grid.ly)
        v0 = _normalized(
            grid, _gaussian(X, Y, 0.35 * grid.lx, 0.35 * grid.ly, sigma), config.M
        )
        w0 = _normalized(
            grid, _gaussian(X, Y, 0.65 * grid.lx, 0.65 * grid.ly, sigma), config.N
        )
    elif config.preset == "vortex-charge":
        sigma = 0.12 * min(grid.lx, grid.ly)
        v0 = _normalized(
            grid, _gaussian(X, Y, 0.3 * grid.lx, 0.5 * grid.ly, sigma), config.M
        )
        w0 = _normalized(
            grid, _gaussian(X, Y, 0.7 * grid.lx, 0.5 * grid.ly, sigma), config.N
        )
        u0 = _stream_velocity(grid, config.amplitude)
    elif config.preset == "near-equilibrium":
        if equilibrium is None:
            equilibrium = solve_pb(config.M, config.N, grid, tol=config.tol_pb)
        eta_v = np.sin(2.0 * np.pi * X / grid.lx) * np.cos(np.pi * Y / grid.ly)
        eta_w = np.cos(np.pi * X / grid.lx) * np.sin(2.0 * np.pi * Y / grid.ly)
        v0 = _normalized(grid, equilibrium.v.data * (1.0 + config.eps * eta_v), config.M)
        w0 = _normalized(grid, equilibrium.w.data * (1.0 + config.eps * eta_w), config.N)
    else:
        raise ConfigError(f"unknown preset {config.preset!r}")

    rhs = ScalarField(grid, v0.data - w0.data)
    phi0 = solve_dirichlet(rhs, tol=config.tol_poisson)
    return SystemState(u0, ScalarField.zeros(grid), v0, w0, phi0, 0.0)


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def _drift_speed(phi):
    g = grad_to_faces(phi)
    return g.max_speed()


def cfl_limit(state, cfl_safety=1.0):
    """Largest admissible dt: cfl_safety * min(h) / max(|u|, |grad phi|)."""
    g = state.grid
    speed = max(state.u.max_speed(), _drift_speed(state.phi))
    if speed == 0.0:
        return np.inf
    return cfl_safety * min(g.hx, g.hy) / speed


def step(state, dt, tol_poisson=1e-10, tol_projection=1e-10, cfl_safety=1.0):
    """Advance one step of the lagged splitting; raises CflViolation when dt is too big.

    state.phi must be the Poisson solve of state.v - state.w (see
    SystemState); it is used as given, not recomputed.
    """
    limit = cfl_limit(state, cfl_safety)
    if dt > limit * (1.0 + 1e-9):
        raise CflViolation(dt, limit)

    v, w = step_charges(state.v, state.w, state.phi, state.u, dt)
    f = body_force(v, w, state.phi)
    u, p = step_velocity(state.u, f, dt, proj_tol=tol_projection)

    phi = solve_dirichlet(ScalarField(state.grid, v.data - w.data), tol=tol_poisson)
    return SystemState(u, p, v, w, phi, state.t + dt)


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

class RunResult:
    """What run() hands back: the report series, final state, output paths."""

    __slots__ = ("reports", "state", "snapshots", "csv_path", "outdir", "equilibrium")

    def __init__(self, reports, state, snapshots, csv_path, outdir, equilibrium):
        self.reports = reports
        self.state = state
        self.snapshots = snapshots
        self.csv_path = csv_path
        self.outdir = outdir
        self.equilibrium = equilibrium


def _write_snapshots(state, outdir, index, paths):
    snapdir = os.path.join(outdir, "snapshots")
    os.makedirs(snapdir, exist_ok=True)
    fields = {
        "v": state.v.data,
        "w": state.w.data,
        "phi": state.phi.data,
        "p": state.p.data,
        "ux": state.u.ux,
        "uy": state.u.uy,
    }
    for name, data in fields.items():
        path = os.path.join(snapdir, f"{name}_{index:06d}.txt")
        save_matrix(path, data)
        paths.append(path)


def run(config, write_outputs=True):
    """Drive the configured scenario to t_max; see the module docstring."""
    grid = config.grid
    if config.M + config.N > config.rho0_warn:
        warnings.warn(
            f"total charge {config.M + config.N:.3g} exceeds the small-data "
            f"threshold {config.rho0_warn:.3g}; decay diagnostics may be slow "
            "or inconclusive",
            stacklevel=2,
        )
    equilibrium = solve_pb(config.M, config.N, grid, tol=config.tol_pb)
    state = build_initial_state(config, equilibrium)

    reports = []
    snapshots = []
    csv_path = None
    if write_outputs:
        os.makedirs(config.outdir, exist_ok=True)
        export_stationary(equilibrium, os.path.join(config.outdir, "stationary"))
        csv_path = os.path.join(config.outdir, "diagnostics.csv")

    nstep = 0
    if config.t_max > 0.0:
        reports.append(energy_report(state, equilibrium))
        if write_outputs:
            _write_snapshots(state, config.outdir, nstep, snapshots)
        end = config.t_max * (1.0 - 1e-12)
        while state.t < end:
            dt = min(config.dt, cfl_limit(state, config.cfl_safety),
                     config.t_max - state.t)
            try:
                state = step(state, dt, tol_poisson=config.tol_poisson,
                             tol_projection=config.tol_projection,
                             cfl_safety=config.cfl_safety)
            except SolverError as exc:
                exc.args = (f"step {nstep + 1} (t = {state.t:.9g}, dt = {dt:.6g}): {exc}",)
                raise
            nstep += 1
            done = state.t >= end
            if nstep % config.record_every == 0 or done:
                reports.append(energy_report(state, equilibrium))
            if write_outputs and (
                done or (config.snapshot_every > 0 and nstep % config.snapshot_every == 0)
            ):
                _write_snapshots(state, config.outdir, nstep, snapshots)

    if write_outputs:
        with open(csv_path, "w") as fh:
            fh.write(csv_header() + "\n")
            for rep in reports:
                fh.write(csv_row(rep) + "\n")
    return RunResult(reports, state, snapshots, csv_path,
                     config.outdir if write_outputs else None, equilibrium)
