"""Desk-scale laboratory for uncertainty-aware online index tuning.

A simulated cost-based optimizer plans queries under hypothetical indexes; a
ground-truth executor deviates from it systematically. Per-operator-kind
classifiers learn cost multipliers from execution feedback, uncertainty gates
decide which corrections to trust, and an exploration-aware sampler turns the
corrected benefits into index configurations, round after round.
"""

__version__ = "0.1.0"

from .catalog import (
    Catalog,
    CatalogSpec,
    ColumnDef,
    ColumnRef,
    IndexCandidate,
    TableDef,
    estimate_index_size,
    generate_catalog,
    selectivity,
)
from .correction import (
    actual_benefit,
    estimated_benefit,
    telemetry_to_labels,
    update_cost,
)
from .costmodel import (
    MULTIPLIER_GRID,
    CostMultiplierModel,
    combined_uncertainty,
    entropy,
    mc_dropout,
)
from .errors import CatalogLookupError, ConfigurationError, ContractError
from .plan import PlanNode, Predicate, encode_operator, leaves, path_to_root
from .selection import (
    Configuration,
    enumerate_configuration,
    exploration_weight,
    generate_candidates,
    selection_probabilities,
    total_value,
)
from .simulator import (
    ExecutionTelemetry,
    GroundTruth,
    execute,
    make_ground_truth,
    whatif_plan,
)
from .tuner import OnlineTuner, TunerParams, overall_improvement, run_baseline
from .workload import (
    DriftSchedule,
    MiniWorkload,
    Query,
    QueryTemplate,
    build_schedule,
    generate_templates,
    unseen_fraction,
)
