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

setup() takes a config to its equilibrium and initial state, and
trajectory() steps on from there with dt = min(time.dt, CFL limit, t_end - t);
a SolverError from a step keeps its class and names the step number, its
start time t and its dt. run() follows the trajectory to t_max, records an
EnergyReport at t = 0 and every record_every-th step, and writes
diagnostics.csv (byte-identical for identical configs), snapshot matrices
and the stationary solution the decay diagnostics compare against. A run
that a SolverError ends still writes diagnostics.csv with the rows recorded
before the failure, then re-raises.
`ehd2d check` takes the first ten steps, whatever t_max is.

load_config layers the configuration: DEFAULTS, then the chosen preset's
defaults, then an INI-style file of [section] key = value lines, then
dotted overrides such as grid.nx=128, in that order. File lines and
overrides go through one parser: keys are case-sensitive as DEFAULTS
spells them, unknown sections or keys are errors, and float values must be
finite.
"""

import configparser
import math
import os
import warnings

import numpy as np

from .errors import CflViolation, ConfigError, SolverError
from .grid import (
    Grid2D,
    MacVectorField,
    ScalarField,
    grad_norm_sq,
    grad_to_faces,
    h1_seminorm,
    integrate,
    kinetic_energy,
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

    A state is not modified after it is built: its speed() is computed once
    and kept, and a step returns a new state.
    """

    __slots__ = ("u", "p", "v", "w", "phi", "t", "_speed")

    def __init__(self, u, p, v, w, phi, t=0.0):
        self.u = u
        self.p = p
        self.v = v
        self.w = w
        self.phi = phi
        self.t = float(t)
        self._speed = None

    @property
    def grid(self):
        return self.v.grid

    def speed(self):
        """max(|u|, |grad phi|) over the faces, the speed the CFL limit divides by."""
        if self._speed is None:
            self._speed = max(self.u.max_speed(), grad_to_faces(self.phi).max_speed())
        return self._speed

    def copy(self):
        return SystemState(self.u.copy(), self.p.copy(), self.v.copy(), self.w.copy(),
                           self.phi.copy(), self.t)


def embed_stationary(s):
    """Stationary solution as a resting system state (useful in tests and checks)."""
    return SystemState(MacVectorField.zeros(s.grid), ScalarField.zeros(s.grid),
                       s.v.copy(), s.w.copy(), s.phi.copy())


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

# SimConfig attribute of each key whose attribute is not the key's own name
_RENAMED = {("output", "dir"): "outdir"}

# name -> (description, defaults applied between DEFAULTS and the user input)
PRESETS = {
    "symmetric-null": (
        "uniform equal charges at rest; every diagnostic stays at its equilibrium value",
        {},
    ),
    "relax-small-mass": (
        "separated Gaussian charge bumps relaxing to the Maxwellian, fluid initially at rest",
        {
            ("initial", "M"): 0.05,
            ("initial", "N"): 0.1,
            ("grid", "lx"): 4.0,
            ("grid", "ly"): 4.0,
            ("time", "dt"): 2e-3,
            ("time", "t_max"): 5.0,
        },
    ),
    "vortex-charge": (
        "divergence-free double vortex stirring Gaussian charge bumps",
        {
            ("initial", "M"): 0.05,
            ("initial", "N"): 0.1,
            ("time", "dt"): 1e-3,
        },
    ),
    "near-equilibrium": (
        "stationary state perturbed multiplicatively by eps",
        {
            ("initial", "M"): 0.05,
            ("initial", "N"): 0.1,
            ("grid", "lx"): 4.0,
            ("grid", "ly"): 4.0,
            ("time", "dt"): 2e-3,
            ("time", "t_max"): 2.0,
        },
    ),
}


class SimConfig:
    """Validated bag of run parameters, one attribute per DEFAULTS key.

    Built by load_config, which also checks the preset name.
    """

    def __init__(self, values):
        for key in DEFAULTS:
            setattr(self, _RENAMED.get(key, key[1]), values[key])
        self._validate()

    def _validate(self):
        """ConfigError naming the first key out of range. A mass m is out of
        range when a density carrying it, or its potential, could have a grid
        norm that overflows. The density peaks at m/vol, so (2m/vol)^2 max(vol, 1)
        must be finite (a margin of 2 for v + w and v - w). (-Lap_h)^-1 >= 0 has
        entries at most hx lx/4 and hy ly/4 (the discrete maximum principle), so
        |phi| <= m min(lx/hy, ly/hx)/4, and solve_pb's stop multiplies phi's norm
        by ||Lap_h|| + (M + N)/vol. vol/m must be finite, or the Newton direction
        of solve_pb is not (its Woodbury scale is sqrt(vol/m))."""
        if self.dt <= 0.0:
            raise ConfigError("time.dt must be positive")
        if not math.isfinite(1.0 / self.dt):
            raise ConfigError(f"time.dt = {self.dt!r} is too small: 1/dt overflows")
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
        try:
            self.grid = g = Grid2D(self.nx, self.ny, self.lx, self.ly)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        norm_b = g.lap_norm + (self.M + self.N) / g.vol  # Python floats overflow to inf, no warning
        for key, mass in (("M", self.M), ("N", self.N)):
            peak, phi = 2.0 * mass / g.vol, mass * min(g.lx / g.hy, g.ly / g.hx) / 4.0
            stop = norm_b * math.sqrt(phi * phi * g.nx * g.ny * max(g.vol, 1.0))
            if not math.isfinite(peak * peak * max(g.vol, 1.0) + stop):
                raise ConfigError(f"initial.{key} = {mass!r} is too large for this grid: a "
                                  "density carrying it, or its potential, could overflow a norm")
            if not math.isfinite(g.vol / mass):
                raise ConfigError(f"initial.{key} = {mass!r} is too small for this grid: "
                                  "the cell volume over it overflows")


def _parse(section, key, raw):
    """The DEFAULTS key (section, key) and raw coerced to its type; floats must be finite."""
    full = (section, key)
    if full not in DEFAULTS:
        raise ConfigError(f"unknown config key {section}.{key}")
    try:
        value = type(DEFAULTS[full])(raw)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {section}.{key}: {raw!r}") from exc
    return full, value


def load_config(path=None, preset=None, overrides=()):
    """Assemble a SimConfig from defaults, preset defaults, a file and overrides.

    Precedence, lowest to highest: DEFAULTS, the preset's defaults, the
    config file, then the section.key=value overrides in order (the CLI
    passes --out last, as output.dir). The preset is the one named by the
    overrides, else the file, else the preset argument; its defaults never
    override explicit file keys.
    """
    user = {} if preset is None else {("initial", "preset"): preset}
    if path is not None:
        cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
        cp.optionxform = str
        try:
            with open(path) as fh:
                cp.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except configparser.Error as exc:
            raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
        for section in cp.sections():
            user.update(_parse(section, key, raw) for key, raw in cp.items(section))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form section.key=value")
        dotted, raw = item.split("=", 1)
        if "." not in dotted:
            raise ConfigError(f"override key {dotted!r} needs the form section.key")
        section, key = dotted.split(".", 1)
        user.update([_parse(section, key, raw)])

    name = user.get(("initial", "preset"), DEFAULTS[("initial", "preset")])
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(presets())}")
    return SimConfig({**DEFAULTS, **PRESETS[name][1], **user})


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def presets():
    """Names of the built-in initial-data generators."""
    return sorted(PRESETS)


def _gaussian(X, Y, cx, cy, sigma):
    return np.exp(-((X - cx) ** 2 + (Y - cy) ** 2) / (2.0 * sigma * sigma))


def _normalized(grid, data, mass):
    total = integrate(ScalarField(grid, data))
    scale = mass / total if total > 0.0 else math.inf
    if not math.isfinite(scale):
        raise ConfigError(f"the initial profile integrates to {total!r} on this grid, "
                          "so it cannot carry a mass; use a finer or less stretched grid")
    return ScalarField(grid, data * scale)


# Relative rounding within which an initial state carries the configured
# masses: a run's own snapshots, fed back as charge files, hold theirs to
# about 1e-14.
MASS_RTOL = 1e-12


def _check_file_mass(field, mass, species, key):
    """ConfigError unless a charge file carries the configured mass.

    The run solves the equilibrium at the configured masses, and transport
    conserves the file's, so every decay diagnostic would measure the state
    against an equilibrium it can never reach.
    """
    found = integrate(field)
    if found == 0.0:
        raise ConfigError(f"initial.{species}_file holds zero mass")
    if abs(found - mass) > MASS_RTOL * mass:
        raise ConfigError(f"initial.{species}_file holds mass {found!r}, but initial.{key} "
                          f"is {mass!r}; set initial.{key} to the file's mass")


def _stream_velocity(grid, amplitude):
    """Divergence-free double vortex from a corner-node streamfunction."""
    xn = np.arange(grid.nx + 1) * grid.hx
    yn = np.arange(grid.ny + 1) * grid.hy
    XN, YN = np.meshgrid(xn, yn)
    xi = amplitude * np.sin(2.0 * np.pi * XN / grid.lx) * np.sin(np.pi * YN / grid.ly)
    # sin(2*pi) is only zero to roundoff; pin the wall nodes so the discrete
    # curl below is exactly no-slip.
    xi[[0, -1], :] = 0.0
    xi[:, [0, -1]] = 0.0
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
    elif config.preset == "symmetric-null":
        v0 = ScalarField.full(grid, config.M / grid.area)
        w0 = ScalarField.full(grid, config.N / grid.area)
    elif config.preset == "relax-small-mass":
        sigma = 0.12 * min(grid.lx, grid.ly)
        v0 = _normalized(grid, _gaussian(X, Y, 0.35 * grid.lx, 0.35 * grid.ly, sigma), config.M)
        w0 = _normalized(grid, _gaussian(X, Y, 0.65 * grid.lx, 0.65 * grid.ly, sigma), config.N)
    elif config.preset == "vortex-charge":
        sigma = 0.12 * min(grid.lx, grid.ly)
        v0 = _normalized(grid, _gaussian(X, Y, 0.3 * grid.lx, 0.5 * grid.ly, sigma), config.M)
        w0 = _normalized(grid, _gaussian(X, Y, 0.7 * grid.lx, 0.5 * grid.ly, sigma), config.N)
        u0 = _stream_velocity(grid, config.amplitude)
    else:  # near-equilibrium
        if equilibrium is None:
            raise ValueError("near-equilibrium perturbs the equilibrium; pass it or use setup()")
        eta_v = np.sin(2.0 * np.pi * X / grid.lx) * np.cos(np.pi * Y / grid.ly)
        eta_w = np.cos(np.pi * X / grid.lx) * np.sin(2.0 * np.pi * Y / grid.ly)
        v0 = _normalized(grid, equilibrium.v.data * (1.0 + config.eps * eta_v), config.M)
        w0 = _normalized(grid, equilibrium.w.data * (1.0 + config.eps * eta_w), config.N)

    # files and presets alike: a large |initial.eps| makes near-equilibrium negative
    if v0.data.min() < 0.0 or w0.data.min() < 0.0:
        raise ConfigError("initial charge densities contain negative values")
    if config.v_file:
        _check_file_mass(v0, config.M, "v", "M")
        _check_file_mass(w0, config.N, "w", "N")
    rhs = ScalarField(grid, v0.data - w0.data)
    phi0 = solve_dirichlet(rhs)
    return SystemState(u0, ScalarField.zeros(grid), v0, w0, phi0, 0.0)


def setup(config):
    """(equilibrium, initial state) of a config; warns when M + N exceeds rho0_warn."""
    if config.M + config.N > config.rho0_warn:
        warnings.warn(
            f"total charge {config.M + config.N:.3g} exceeds the small-data "
            f"threshold {config.rho0_warn:.3g}; decay diagnostics may be slow "
            "or inconclusive",
            stacklevel=3,
        )
    equilibrium = solve_pb(config.M, config.N, config.grid)
    state = build_initial_state(config, equilibrium)
    _check_representable(config, state)
    return equilibrium, state


def _check_representable(config, state):
    """ConfigError naming the key whose size makes a squared norm of the
    initial state overflow.

    The energy report squares every field it measures, so a config whose
    initial potential or velocity has no finite squared H1 or grid-L2 norm
    cannot be measured; such runs printed pages of overflow warnings and
    most ended in a SolverError with residual inf or nan. The densities
    need no entry here: they are nonnegative and carry the configured
    masses (files to MASS_RTOL), so no cell holds more than its mass over
    vol, and SimConfig._validate has bounded twice that. Measured on 8^2
    grids: vortex-charge is rejected from amplitude 4.8e151, where
    |grad u|^2 overflows (|u|^2 follows at 4.9e152, and runs failed from
    1.85e152).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        sizes = (
            (f"initial.M = {config.M!r} with initial.N = {config.N!r}", "potential",
             h1_seminorm(state.phi)),
            (f"initial.amplitude = {config.amplitude!r}", "velocity",
             kinetic_energy(state.u) + grad_norm_sq(state.u)),
        )
    for key, what, size in sizes:
        if not math.isfinite(size):
            raise ConfigError(f"{key} is too large for this grid: the squared norm of "
                              f"the initial {what} overflows")


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def cfl_limit(state, cfl_safety=1.0):
    """Largest admissible dt: cfl_safety * min(h) / max(|u|, |grad phi|)."""
    g = state.grid
    speed = state.speed()
    if speed == 0.0:
        return np.inf
    return cfl_safety * min(g.hx, g.hy) / speed


def step(state, dt, cfl_safety=1.0):
    """Advance one step of the lagged splitting; CflViolation unless 0 < dt <= CFL limit.

    state.phi must be the Poisson solve of state.v - state.w (see
    SystemState); it is used as given, not recomputed. Every solve is direct
    and checks its residual against its own rounding (grid.ROUNDING), so the
    step has no tolerance to set; a solve that misses it raises NonConvergence.
    """
    limit = cfl_limit(state, cfl_safety)
    if not 0.0 < dt <= limit * (1.0 + 1e-9):
        raise CflViolation(dt, limit)

    v, w = step_charges(state.v, state.w, state.phi, state.u, dt)
    f = body_force(v, w, state.phi)
    u, p = step_velocity(state.u, f, dt)

    phi = solve_dirichlet(ScalarField(state.grid, v.data - w.data))
    return SystemState(u, p, v, w, phi, state.t + dt)


def trajectory(state, config, t_end=math.inf):
    """Yield (n, dt, state, last) after each step n toward t_end (see the module
    docstring); last marks the step that reaches t_end, so never without one."""
    end = t_end * (1.0 - 1e-12)
    nstep = 0
    while state.t < end:
        dt = min(config.dt, cfl_limit(state, config.cfl_safety), t_end - state.t)
        try:
            state = step(state, dt, cfl_safety=config.cfl_safety)
        except SolverError as exc:
            exc.args = (f"step {nstep + 1} (t = {state.t:.9g}, dt = {dt:.6g}): {exc}",)
            raise
        nstep += 1
        yield nstep, dt, state, state.t >= end


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


def _write_csv(path, reports):
    with open(path, "w") as fh:
        fh.write(csv_header() + "\n")
        for rep in reports:
            fh.write(csv_row(rep) + "\n")


def run(config, write_outputs=True):
    """Drive the configured scenario to t_max; see the module docstring."""
    equilibrium, state = setup(config)

    reports = []
    snapshots = []
    csv_path = None
    if write_outputs:
        os.makedirs(config.outdir, exist_ok=True)
        export_stationary(equilibrium, os.path.join(config.outdir, "stationary"))
        csv_path = os.path.join(config.outdir, "diagnostics.csv")

    try:
        if config.t_max > 0.0:
            reports.append(energy_report(state, equilibrium))
            if write_outputs:
                _write_snapshots(state, config.outdir, 0, snapshots)
            for nstep, _, state, done in trajectory(state, config, config.t_max):
                if nstep % config.record_every == 0 or done:
                    reports.append(energy_report(state, equilibrium))
                if write_outputs and (
                    done or (config.snapshot_every > 0 and nstep % config.snapshot_every == 0)
                ):
                    _write_snapshots(state, config.outdir, nstep, snapshots)
    except SolverError:
        if write_outputs:  # keep the rows recorded before the failure
            _write_csv(csv_path, reports)
        raise

    if write_outputs:
        _write_csv(csv_path, reports)
    return RunResult(reports, state, snapshots, csv_path,
                     config.outdir if write_outputs else None, equilibrium)
