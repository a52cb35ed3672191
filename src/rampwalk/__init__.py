"""Discrete-time quantum walk with a linearly ramped coin.

The package simulates a walker on the integer line whose two-level coin
is rotated by a fixed bias plus a ramp that grows with the step index,
locates the parameter points where the walker returns to the origin
with certainty, and quantifies how coin dephasing degrades the return.
"""

from .coins import (
    CoinOperator,
    StepConvention,
    coin_at_step,
    ry,
)
from .states import (
    CoinVector,
    Lattice,
    PositionDistribution,
    WalkerCoinDensityMatrix,
    WalkerCoinPureState,
    coin_overlap,
    reduced_coin_state,
)
from .evolution import (
    WalkSchedule,
    bisect_visibility,
    propagator_blocks,
)
from .analysis import (
    RevivalReport,
    classify,
    effective_coin_balanced_strings,
    polya_number,
    tv_distance,
)
from .search import (
    CatalogEntry,
    RevivalCandidate,
    SearchConfig,
    TableDiff,
    load_reference_catalog,
    scan,
    verify_table,
)

__all__ = [
    "CatalogEntry",
    "CoinOperator",
    "CoinVector",
    "Lattice",
    "PositionDistribution",
    "RevivalCandidate",
    "RevivalReport",
    "SearchConfig",
    "StepConvention",
    "TableDiff",
    "WalkSchedule",
    "WalkerCoinDensityMatrix",
    "WalkerCoinPureState",
    "bisect_visibility",
    "classify",
    "coin_at_step",
    "coin_overlap",
    "effective_coin_balanced_strings",
    "load_reference_catalog",
    "polya_number",
    "propagator_blocks",
    "reduced_coin_state",
    "ry",
    "scan",
    "tv_distance",
    "verify_table",
]

__version__ = "0.1.0"
