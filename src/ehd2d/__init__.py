"""2-D electrohydrodynamics on a MAC grid.

Coupled incompressible flow / two-species charge transport / electrostatics
with entropy-structure-preserving discretizations, a stationary
Poisson-Boltzmann solver, and the diagnostics that verify conservation,
energy dissipation and exponential relaxation numerically.
"""

from .grid import (
    Grid2D,
    MacVectorField,
    ScalarField,
    cell_inner,
    div_from_faces,
    face_inner,
    grad_norm_sq,
    grad_to_faces,
    h1_seminorm,
    integrate,
    kinetic_energy,
    load_matrix,
    lp_norm,
    save_matrix,
)
from .poisson import (apply_dirichlet_laplacian, laplacian_matrix, solve_dirichlet,
                      solve_neumann)
from .transport import bernoulli, step_charges, transport_generator
from .fluid import body_force, ladyzhenskaya_ratio, step_velocity
from .stationary import (StationarySolution, functional_J, sinh_form_check, solve_pb,
                         stationary_pressure_check)
from .diagnostics import (
    DecayFit,
    EnergyReport,
    energy_report,
    entropy_production,
    fit_decay,
    psi,
    total_energy,
    weighted_poincare_estimate,
)
from .sim import (
    RunResult,
    SimConfig,
    SystemState,
    build_initial_state,
    embed_stationary,
    load_config,
    presets,
    run,
    setup,
    step,
    trajectory,
)

__version__ = "0.1.0"

__all__ = [
    "Grid2D", "MacVectorField", "ScalarField",
    "cell_inner", "div_from_faces", "face_inner", "grad_norm_sq",
    "grad_to_faces", "h1_seminorm", "integrate",
    "kinetic_energy", "load_matrix", "lp_norm", "save_matrix",
    "apply_dirichlet_laplacian", "laplacian_matrix",
    "solve_dirichlet", "solve_neumann",
    "bernoulli", "step_charges", "transport_generator",
    "body_force", "ladyzhenskaya_ratio", "step_velocity",
    "StationarySolution", "functional_J", "sinh_form_check", "solve_pb",
    "stationary_pressure_check",
    "DecayFit", "EnergyReport", "energy_report", "entropy_production",
    "fit_decay", "psi", "total_energy", "weighted_poincare_estimate",
    "RunResult", "SimConfig", "SystemState", "build_initial_state",
    "embed_stationary", "load_config", "presets", "run", "setup", "step", "trajectory",
    "__version__",
]
