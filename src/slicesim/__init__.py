"""Simulator and analytics toolkit for multi-queue admission control of network slices."""

from .slice_model import (
    ResourceModel,
    SliceType,
    StateSpace,
    assigned_resources,
    enumerate_state_space,
    is_feasible,
)
from .strategy import (
    PreferenceMatrix,
    constant_strategy,
    naive_strategy,
    random_strategy,
)
from .controller import GreedySingleQueueController, MultiQueueController, RequestRecord
from .engine import (
    MetricsReport,
    MonteCarloResult,
    SimConfig,
    SimTrace,
    logged_rounds,
    monte_carlo,
    overall_metrics,
    queue_empty_counts,
    run,
)

__version__ = "0.1.0"
