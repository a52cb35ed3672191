"""Discrete-time quantum walk with a linearly ramped coin.

The package simulates a walker on the integer line whose two-level coin
is rotated by a fixed bias plus a ramp that grows with the step index,
locates the parameter points where the walker returns to the origin
with certainty, and quantifies how coin dephasing degrades the return.
"""

from .coins import (
    StepConvention,
    coin_at_step,
)
from .states import (
    PositionDistribution,
    WalkerCoinDensityMatrix,
    WalkerCoinPureState,
    reduced_coin_state,
)
from .evolution import (
    WalkSchedule,
    bisect_visibility,
)
from .analysis import (
    RevivalReport,
    classify,
    effective_coin_balanced_strings,
    polya_number,
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
    "effective_coin_balanced_strings",
    "load_reference_catalog",
    "polya_number",
    "reduced_coin_state",
    "scan",
    "verify_table",
]

__version__ = "0.1.0"
