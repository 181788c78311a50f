"""Spherical minority game laboratory.

Three independent engines for the batch spherical minority game under static
or period-2 oscillating external bid perturbations with partial self-impact
correction:

* ``simulator``: agent-level integration of the batch dynamics at finite N;
* ``theory``: exact closed-form stationary solutions and transition lines;
* ``kernels``: deterministic iteration of the exact two-time correlation and
  response dynamics of the effective single-agent process.

The ``cli`` module drives parameter sweeps and cross-engine comparisons.
"""

from .core import (
    ContractError,
    DegenerateStateError,
    DisorderSample,
    ExternalBid,
    GameParams,
    ResourceBudgetError,
    generate_disorder,
    precompute_couplings,
)
from .kernels import (
    KernelParams,
    KernelState,
    KernelTail,
    extract_stationary,
    iterate_kernels,
)
from .simulator import RunObservables, run_experiment
from .theory import (
    Phase,
    StationaryTheory,
    alpha_c1,
    alpha_c2,
    classify_phase,
    stationary_solution,
)

__version__ = "0.1.0"

__all__ = [
    "ContractError",
    "DegenerateStateError",
    "DisorderSample",
    "ExternalBid",
    "GameParams",
    "KernelParams",
    "KernelState",
    "KernelTail",
    "Phase",
    "ResourceBudgetError",
    "RunObservables",
    "StationaryTheory",
    "alpha_c1",
    "alpha_c2",
    "classify_phase",
    "extract_stationary",
    "generate_disorder",
    "iterate_kernels",
    "precompute_couplings",
    "run_experiment",
    "stationary_solution",
    "__version__",
]
