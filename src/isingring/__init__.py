"""Exact transverse-field Ising rings and their quantum-correlation measures.

The library solves H = -J sum_n sx_n sx_{n+1} + B sum_n sz_n (J >= 0) on
periodic rings of 2..12 spins exactly, diagonalizing only the block spanned
by the ring's rotation- and reflection-symmetric states, and evaluates pairwise
discord/MID/AMID, global quantum discord, bipartition-entanglement
statistics, thermodynamic-limit Toeplitz correlators, and B/J sweep
analyses of all of the above.
"""

__version__ = "0.1.0"

from .density import (
    DensityMatrix,
    PureState,
    binary_entropy,
    reduced_state,
    rotation_matrix,
    shannon_entropy,
    von_neumann_entropy,
)
from .entanglement import (
    EntanglementStats,
    bipartition_entanglement,
    entanglement_stats,
)
from .errors import (
    CapacityError,
    ConvergenceWarning,
    EigensolverError,
    NonXStateWarning,
    QuadratureError,
)
from .global_discord import (
    GDResult,
    OptimizerConfig,
    gd_objective,
    global_discord,
)
from .pair_measures import (
    CorrelatorSet,
    XState,
    amid,
    discord,
    is_x_pattern,
    mid,
    reduced_two_spin,
    toeplitz_correlators,
    x_state_from_correlators,
)
from .ring import (
    MAX_SITES,
    RingConfig,
    ghz_state,
    ground_state,
    parity_expectation,
    product_state_down,
)
from .sweep import (
    COLUMNS,
    PeakResult,
    ScalingFit,
    SweepTable,
    default_ratio_grid,
    find_peak,
    fit_scaling,
    sweep,
)

__all__ = [
    "__version__",
    # density
    "DensityMatrix",
    "PureState",
    "binary_entropy",
    "reduced_state",
    "rotation_matrix",
    "shannon_entropy",
    "von_neumann_entropy",
    # entanglement
    "EntanglementStats",
    "bipartition_entanglement",
    "entanglement_stats",
    # errors
    "CapacityError",
    "ConvergenceWarning",
    "EigensolverError",
    "NonXStateWarning",
    "QuadratureError",
    # global discord
    "GDResult",
    "OptimizerConfig",
    "gd_objective",
    "global_discord",
    # pair measures
    "CorrelatorSet",
    "XState",
    "amid",
    "discord",
    "is_x_pattern",
    "mid",
    "reduced_two_spin",
    "toeplitz_correlators",
    "x_state_from_correlators",
    # ring
    "MAX_SITES",
    "RingConfig",
    "ghz_state",
    "ground_state",
    "parity_expectation",
    "product_state_down",
    # sweep
    "COLUMNS",
    "PeakResult",
    "ScalingFit",
    "SweepTable",
    "default_ratio_grid",
    "find_peak",
    "fit_scaling",
    "sweep",
]
