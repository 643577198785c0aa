"""Vegetation-water dynamics with non-local dispersal on finite habitats."""

__version__ = "0.1.0"

from .discretization import (DispersalOperator, Grid1D, LaplacianOperator,
                             Operators, assemble_laplacian, assemble_nonlocal,
                             build_operators, make_grid, taylor_consistency)
from .dynamics import (State, SteadyResult, extinction_decay_check,
                       run_to_steady, run_to_steady_batch)
from .kernels import (Kernel, KernelMoments, check_assumptions, custom_kernel,
                      kernel_eval, kernel_from_table, kernel_moments,
                      laplace_kernel, super_gaussian_kernel)
from .kinetics import (KineticEquilibrium, ModelParams, constant_steady_states,
                       scalar_f, solve_water_stationary, vegetated_equilibrium)
from .spectral import (EigResult, estimate_lipschitz_M, extinction_criterion,
                       principal_eigenvalue_laplacian,
                       principal_eigenvalue_nonlocal)
from .continuation import (Branch, BranchPoint, PalcControls, Stability,
                           StationaryResidual, newton, palc_continue,
                           solve_stationary, stability_flag)

__all__ = [name for name in dir() if not name.startswith("_")]
