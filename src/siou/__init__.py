"""Set-indexed Ornstein-Uhlenbeck processes on rectangle families.

Geometry of rectangle indices and their increments, closed-form stationary
and point-started kernels over configurable measures, a sequential Markov
sampler with an exact-joint oracle, a grid discretization of the driving
Brownian sheet, and a verification harness with deterministic and Monte
Carlo checks. The ``siou`` console script exposes the lot.
"""

from .errors import (
    ComplexityError,
    ConfigError,
    DegenerateKernelError,
    InternalConsistencyError,
    InvalidGeometryError,
    InvalidGridError,
    KernelInconsistencyError,
    NotPSDError,
    OutOfRangeError,
    PlanningError,
    SiouError,
)
from .gaussian import GaussianSpec, RngSeed, conditional, factorize, sample
from .geometry import Corner, Frontier, Increment, UnionSet, canonicalize, frontier, min_closure
from .kernel import (KernelParams, TransitionParams, cov_dirac, cov_matrix, cov_stationary, mean_dirac, mean_vector,
                     transition_density, transition_params)
from .measures import MeasureSpec, measure_diff, measure_rect, measure_symdiff, measure_union
from .sheet import (
    GridSpec,
    SheetField,
    batch_paths,
    equivalent_kernel_params,
    integrate_mpou,
    integrate_stationary,
    sheet_increments,
    truncation_bound,
)
from .simulator import InitialLaw, Plan, PlanStep, SamplePath, plan, simulate, simulate_exact
from .verify import CheckReport, FlowSpec, check_mc_moments, run_suite

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "SiouError",
    "InvalidGeometryError",
    "InvalidGridError",
    "ComplexityError",
    "InternalConsistencyError",
    "KernelInconsistencyError",
    "DegenerateKernelError",
    "NotPSDError",
    "PlanningError",
    "OutOfRangeError",
    "ConfigError",
    "Corner",
    "UnionSet",
    "Increment",
    "Frontier",
    "canonicalize",
    "frontier",
    "min_closure",
    "MeasureSpec",
    "measure_rect",
    "measure_union",
    "measure_symdiff",
    "measure_diff",
    "KernelParams",
    "TransitionParams",
    "cov_matrix",
    "mean_vector",
    "cov_stationary",
    "cov_dirac",
    "mean_dirac",
    "transition_params",
    "transition_density",
    "GaussianSpec",
    "RngSeed",
    "factorize",
    "sample",
    "conditional",
    "InitialLaw",
    "Plan",
    "PlanStep",
    "SamplePath",
    "plan",
    "simulate",
    "simulate_exact",
    "GridSpec",
    "SheetField",
    "sheet_increments",
    "integrate_mpou",
    "integrate_stationary",
    "truncation_bound",
    "equivalent_kernel_params",
    "batch_paths",
    "CheckReport",
    "FlowSpec",
    "check_mc_moments",
    "run_suite",
]
