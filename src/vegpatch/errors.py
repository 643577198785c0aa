"""Exception and warning types shared across the package."""


class VegpatchError(Exception):
    """Base class for all package errors."""


class NonIntegrable(VegpatchError):
    """Kernel moment quadrature failed to converge within budget."""


class SingularSystem(VegpatchError):
    """Tridiagonal elimination hit a zero pivot."""


class WaterBoundViolated(VegpatchError):
    """Stationary water profile left the maximum-principle range [0, A]."""

    def __init__(self, w_min: float, w_max: float, A: float):
        self.w_min = w_min
        self.w_max = w_max
        super().__init__(f"water maximum principle violated: W in "
                         f"[{w_min!r}, {w_max!r}], A = {A!r}")


class Blowup(VegpatchError):
    """Time integration produced a non-finite or huge value."""

    def __init__(self, step: int, node: int, value: float):
        self.step = step
        self.node = node
        self.value = value
        super().__init__(f"blowup at step {step}, node {node}: value {value!r}")


class AsymmetricStart(VegpatchError):
    """A run on the even half grid was given a start that is not even
    under x -> -x."""


class NewtonDiverged(VegpatchError):
    """Newton corrector exceeded its iteration cap or blew up."""


class EigenNotConverged(VegpatchError):
    """Eigen-solve stopped at its iteration cap short of its tolerance."""


class SingularJacobian(VegpatchError):
    """Direct solve of the Newton system failed."""


class ConfigError(VegpatchError):
    """Invalid or incomplete run configuration."""


class BadGrid(ConfigError):
    """Grid construction with invalid half-width or node count."""


class UnstableTimestep(ConfigError):
    """Requested explicit time step violates the stability guard."""


class ResolutionWarning(UserWarning):
    """Grid spacing too coarse to resolve the dispersal kernel."""
