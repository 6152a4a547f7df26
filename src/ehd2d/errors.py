"""Exception types shared across the solver modules.

Every failure mode that a caller can reasonably react to gets its own
class; plumbing problems (bad config files, unknown presets) raise
ConfigError so the command-line layer can map them to a usage exit code.
"""


class SolverError(Exception):
    """Base class for numerical failures (distinct from usage errors)."""


class NonConvergence(SolverError):
    """An iterative solve ran out of iterations.

    Carries the iteration count and the last residual so callers can log
    something actionable.
    """

    def __init__(self, iterations, residual, what="linear solve"):
        self.iterations = iterations
        self.residual = residual
        super().__init__(
            f"{what} did not converge after {iterations} iterations "
            f"(residual {residual:.3e})"
        )


class Incompatible(SolverError):
    """Right-hand side violates the compatibility condition of a singular solve."""

    def __init__(self, mass):
        self.mass = mass
        super().__init__(
            f"Neumann right-hand side has nonzero mean (integral {mass:.3e})"
        )


class LineSearchStall(SolverError):
    """Backtracking line search could not reduce the objective."""

    def __init__(self, J, step):
        self.J = J
        self.step = step
        super().__init__(
            f"line search stalled at step size {step:.3e} (objective {J:.6e})"
        )


class CflViolation(SolverError):
    """Requested time step is not positive or exceeds the advective stability limit."""

    def __init__(self, dt, limit):
        self.dt = dt
        self.limit = limit
        super().__init__(f"dt = {dt:.3e} is not in (0, {limit:.3e}], the CFL limit")


class ZeroField(SolverError):
    """An operation that needs a nonzero field received an all-zero one."""


class EmptyWindow(SolverError):
    """A fit window contains too few samples."""


class NonpositiveValues(SolverError):
    """Positive data was required (log arguments, decay series, entropy weights)."""


class NonFinite(SolverError, ValueError):
    """A field holds inf or NaN: a computation overflowed, or bad data came in."""


class ConfigError(Exception):
    """Bad configuration input: unknown key, unparsable value, missing file."""
